package db

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// buildReplayStore populates a multi-shard store with inserts, deletes, and
// re-inserts so replay has real work (live tuples, dead records, shared
// symbols) and then closes it.
func buildReplayStore(tb testing.TB, dir string, facts int) {
	tb.Helper()
	ds, err := OpenDisk(dir, testSchema(), 4)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < facts; i++ {
		if _, err := ds.InsertFact(NewFact("Teams", fmt.Sprintf("t%d", i), fmt.Sprintf("c%d", i%7))); err != nil {
			tb.Fatal(err)
		}
		if _, err := ds.InsertFact(NewFact("Goals", fmt.Sprintf("p%d", i), fmt.Sprintf("d%d", i%13))); err != nil {
			tb.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := ds.DeleteFact(NewFact("Goals", fmt.Sprintf("p%d", i), fmt.Sprintf("d%d", i%13))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := ds.Sync(); err != nil {
		tb.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		tb.Fatal(err)
	}
}

// shardFingerprint flattens what replay built into a comparable form: each
// shard's live and record counts, and each relation's postings, in order.
func shardFingerprint(ds *DiskStore) map[string][]string {
	fp := make(map[string][]string)
	for name, r := range ds.rels {
		for i, sh := range r.shards {
			fp[fmt.Sprintf("%s.%d", name, i)] = []string{fmt.Sprintf("live %d, records %d", sh.live, sh.records)}
		}
		var postings []string
		seen := make(map[Binding]bool)
		for _, t := range r.rel.Tuples() {
			for col, v := range t {
				b := Binding{Col: col, Value: v}
				if seen[b] {
					continue
				}
				seen[b] = true
				for _, u := range r.rel.Scan([]Binding{b}) {
					postings = append(postings, fmt.Sprintf("%d=%s: %v", col, v, u))
				}
			}
		}
		fp[name] = postings
	}
	return fp
}

// TestDiskReplayWorkersParity: the parallel open replays every segment to a
// state byte-identical with a fully serial open — same shard counts, same
// postings in the same order, same recovery counters, same torn-tail
// truncation — including over a store with a torn segment tail.
func TestDiskReplayWorkersParity(t *testing.T) {
	dir := t.TempDir()
	buildReplayStore(t, dir, 400)

	// Tear one segment's tail: append the first half of a real record — an
	// incomplete final record that replay must truncate identically in both
	// modes.
	seg := filepath.Join(dir, segName("Teams", 1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	first, perr := parseSegRecord(raw, 0, formatVersion, 2, ^uint32(0))
	if perr != nil {
		t.Fatalf("parsing first segment record: %v", perr)
	}
	tear := func() {
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(raw[:first.n/2]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	tear()
	serial, err := OpenDisk(dir, testSchema(), 0, withReplayWorkers(1))
	if err != nil {
		t.Fatalf("serial open: %v", err)
	}
	serialFP := shardFingerprint(serial)
	serialStats := serial.Stats()
	serialFacts := factStrings(serial)
	serial.Close()

	// Opening truncates the torn tail away; tear it again so the parallel
	// open replays the same bytes the serial open did.
	tear()
	parallel, err := OpenDisk(dir, testSchema(), 0, withReplayWorkers(8))
	if err != nil {
		t.Fatalf("parallel open: %v", err)
	}
	defer parallel.Close()
	if got := shardFingerprint(parallel); !reflect.DeepEqual(got, serialFP) {
		t.Error("parallel replay produced different shard contents than serial replay")
	}
	ps := parallel.Stats()
	if ps.TornTails != serialStats.TornTails || ps.TornBytesTruncated != serialStats.TornBytesTruncated ||
		ps.RecordsReplayed != serialStats.RecordsReplayed || ps.TotalFacts != serialStats.TotalFacts {
		t.Errorf("recovery counters diverge: parallel {torn %d/%dB, replayed %d, facts %d} vs serial {torn %d/%dB, replayed %d, facts %d}",
			ps.TornTails, ps.TornBytesTruncated, ps.RecordsReplayed, ps.TotalFacts,
			serialStats.TornTails, serialStats.TornBytesTruncated, serialStats.RecordsReplayed, serialStats.TotalFacts)
	}
	if serialStats.TornTails == 0 {
		t.Error("test setup: expected at least one torn tail")
	}
	if got := factStrings(parallel); !reflect.DeepEqual(got, serialFacts) {
		t.Error("parallel replay produced a different fact set than serial replay")
	}
	// The parallel-opened store is fully writable afterwards.
	if _, err := parallel.InsertFact(NewFact("Teams", "postopen", "X")); err != nil {
		t.Errorf("insert after parallel open: %v", err)
	}
}

func factStrings(s Store) []string {
	var out []string
	for _, f := range s.Facts() {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

// BenchmarkDiskOpen measures open-time segment replay serial vs parallel
// over the same populated store.
func BenchmarkDiskOpen(b *testing.B) {
	dir := b.TempDir()
	buildReplayStore(b, dir, 5000)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := OpenDisk(dir, testSchema(), 0, withReplayWorkers(bench.workers))
				if err != nil {
					b.Fatal(err)
				}
				ds.Close()
			}
		})
	}
}
