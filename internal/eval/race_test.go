package eval

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// TestConcurrentEvalWithInterleavedEdits exercises the cache under the
// engine's concurrency contract: a writer applies edits while holding an
// RWMutex exclusively, and readers evaluate under the shared lock. Each read
// compares cached Result and uncached Witnesses against the naive reference
// on the same locked snapshot — a cache entry served across a generation
// bump would show up as a mismatch. Run under -race this also checks the cache's
// internal locking.
func TestConcurrentEvalWithInterleavedEdits(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	consts := []string{"C0", "C1", "C2"}
	seedRNG := rand.New(rand.NewSource(2718))
	d := randDB(seedRNG, s)
	var queries []*cq.Query
	for len(queries) < 6 {
		q := randQuery(seedRNG)
		if err := q.Validate(s); err == nil && len(q.Head) > 0 {
			queries = append(queries, q)
		}
	}

	var mu sync.RWMutex
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: serialized edits, one generation bump at a time
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			rel := "R"
			if rng.Intn(2) == 0 {
				rel = "S"
			}
			f := db.NewFact(rel, consts[rng.Intn(3)], consts[rng.Intn(3)])
			mu.Lock()
			if rng.Intn(2) == 0 {
				_, _ = d.InsertFact(f)
			} else {
				_, _ = d.DeleteFact(f)
			}
			mu.Unlock()
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				q := queries[rng.Intn(len(queries))]
				mu.RLock()
				got := Result(q, d)
				want := NaiveResult(q, d)
				witnessesOK := true
				if len(want) > 0 {
					tp := want[rng.Intn(len(want))]
					witnessesOK = witnessesMatchNaive(Witnesses(q, d, tp), q, d, tp)
				}
				gen := d.Generation()
				mu.RUnlock()
				if !tuplesEqual(got, want) {
					t.Errorf("reader %d (%s, gen %d): cached Result %v, naive %v — stale generation served",
						w, q, gen, got, want)
					return
				}
				if !witnessesOK {
					t.Errorf("reader %d (%s, gen %d): witnesses diverge from the naive ones", w, q, gen)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
