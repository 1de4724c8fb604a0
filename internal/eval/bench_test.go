package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/db"
)

// BenchmarkWitnessesCold guards the streaming path of Witnesses, which no
// cache serves: one answer of Soccer Q3 (the Fig 3d query), its facts
// interned straight from the search. Allocations scale with the answer's
// distinct facts and witness sets, not with its assignments.
func BenchmarkWitnessesCold(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQueries()[2]
	t := Result(q, d, NoCache())[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Witnesses(q, d, t)) == 0 {
			b.Fatal("answer without witnesses")
		}
	}
}

// BenchmarkResultCold guards the join search itself: Q(D) of Soccer Q1–Q5
// with the cache and any maintainer bypassed, on the in-memory store and on a
// DiskStore (which reads through the same db.Relation index).
func BenchmarkResultCold(b *testing.B) {
	mem := dataset.Soccer(dataset.SoccerOpts{})
	disk, err := db.OpenDisk(b.TempDir(), mem.Schema(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	if _, err := db.Copy(disk, mem); err != nil {
		b.Fatal(err)
	}
	for _, store := range []struct {
		name string
		d    db.Reader
	}{{"mem", mem}, {"disk", disk}} {
		for i, q := range dataset.SoccerQueries() {
			b.Run(fmt.Sprintf("%s/Q%d", store.name, i+1), func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					if len(Result(q, store.d, NoCache())) == 0 {
						b.Fatal("empty result")
					}
				}
			})
		}
	}
}

// BenchmarkWitnessKey guards the dedup-key construction of Witnesses: the
// fact keys are appended into one pre-sized buffer, where string
// concatenation allocated a growing copy per fact — quadratic bytes in the
// witness size. Run with -benchmem; it must stay at two allocations (the
// buffer and the key string) whatever len(w).
func BenchmarkWitnessKey(b *testing.B) {
	w := make([]db.Fact, 16)
	for i := range w {
		w[i] = db.NewFact("Games", fmt.Sprintf("%02d.07.2014", i), "GER", "ARG", "Final", "1:0")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if witnessKey(w) == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkSortAssignments guards the precomputed-key sort: Assignment.Key
// sorts and concatenates the bindings, so rebuilding it inside the comparator
// (as sort.Slice callbacks used to) costs O(n log n) key constructions per
// sort instead of O(n).
func BenchmarkSortAssignments(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	base := make([]Assignment, 512)
	for i := range base {
		base[i] = Assignment{
			"x": fmt.Sprintf("v%03d", rng.Intn(1000)),
			"y": fmt.Sprintf("v%03d", rng.Intn(1000)),
			"z": fmt.Sprintf("v%03d", rng.Intn(1000)),
		}
	}
	buf := make([]Assignment, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		sortAssignments(buf)
	}
}
