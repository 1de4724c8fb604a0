package db

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/faultfs"
)

// buildReplayStore populates a store with inserts, deletes, and re-inserts
// so replay has real work (live tuples, dead records, shared symbols) and
// then closes it.
func buildReplayStore(tb testing.TB, dir string, facts int) {
	tb.Helper()
	ds, err := OpenDisk(dir, testSchema(), 0)
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

// TestReopenKeepsPostingOrder: a disk store and a mem database take the
// same seeded inserts, deletes and re-inserts; after a close and a reopen,
// every one-binding Scan of the disk store equals the mem store's, order
// included. Replay runs the live path's Relation calls in log order, so it
// rebuilds the postings the live store had.
func TestReopenKeepsPostingOrder(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := New(testSchema())
	rng := rand.New(rand.NewSource(5))
	pool := []string{"A", "B", "C", "D", "E"}
	var seen []Fact
	for i := 0; i < 400; i++ {
		e := Insertion(NewFact(testSchema().Names()[rng.Intn(2)], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
		if rng.Intn(3) == 0 && len(seen) > 0 {
			e = Deletion(seen[rng.Intn(len(seen))]) // deletes and, later, re-inserts
		} else {
			seen = append(seen, e.Fact)
		}
		if _, err := ds.Apply(e); err != nil {
			t.Fatal(err)
		}
		mem.Apply(e)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range testSchema().Names() {
		for col := 0; col < 2; col++ {
			for _, v := range pool {
				b := []Binding{{Col: col, Value: v}}
				if got, want := fmt.Sprint(re.Rel(name).Scan(b)), fmt.Sprint(mem.Rel(name).Scan(b)); got != want {
					t.Errorf("%s col %d = %s: reopened disk store scans %s, mem store %s", name, col, v, got, want)
				}
			}
		}
	}
}

// syncCountFS counts the fsyncs of the files it opens, the way the
// benchmark's counting filesystem does.
type syncCountFS struct {
	faultfs.FS
	n *int
}

func (c syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountFile{File: f, n: c.n}, nil
}

type syncCountFile struct {
	faultfs.File
	n *int
}

func (f syncCountFile) Sync() error {
	*f.n++
	return f.File.Sync()
}

// TestSyncFsyncsOnlyWhatItWrote: a Sync with nothing appended since the
// last one makes no fsync, and a Sync after an edit makes exactly one.
func TestSyncFsyncsOnlyWhatItWrote(t *testing.T) {
	var fsyncs int
	ds, err := OpenDisk(t.TempDir(), testSchema(), 0, WithFS(syncCountFS{FS: faultfs.OS(), n: &fsyncs}))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := Copy(ds, benchDB(50)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name   string
		edit   bool
		fsyncs int
	}{
		{"second Sync", false, 0},
		{"Sync after one edit", true, 1},
		{"Sync after that", false, 0},
	} {
		if step.edit {
			if _, err := ds.InsertFact(NewFact("Teams", "late", "EU")); err != nil {
				t.Fatal(err)
			}
		}
		before := fsyncs
		if err := ds.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs - before; got != step.fsyncs {
			t.Errorf("%s made %d fsyncs, want %d", step.name, got, step.fsyncs)
		}
	}
}

// BenchmarkDiskOpen measures an open's replay of a populated store: 10,000
// inserts and 1,667 deletes over about 10,000 symbols.
func BenchmarkDiskOpen(b *testing.B) {
	dir := b.TempDir()
	buildReplayStore(b, dir, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			b.Fatal(err)
		}
		ds.Close()
	}
}
