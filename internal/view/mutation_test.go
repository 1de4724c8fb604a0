package view

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// TestMaintenanceIsReadOnly pins the overlay-based delta rules: propagating
// an edit through maintained views (including the pre-state legs for
// positive-atom deletes and negated-atom inserts) must not move the store
// generation, and on a journaled DiskStore must not append any log
// record beyond the semantic edits themselves. The historical temp-toggle
// implementation journaled an insert/delete pair per maintained view per
// edit; a crash (or journal-replay failover) landing between a toggle and
// its revert could then recover a state that never semantically existed.
func TestMaintenanceIsReadOnly(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b"}},
	)
	queries := []*cq.Query{
		cq.MustParse("(x) :- R(x, y), S(y)"),
		cq.MustParse("(x) :- R(x, y), not S(x)"),
	}
	for _, q := range queries {
		if err := q.Validate(s); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := db.OpenDisk(t.TempDir(), s, 0)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer ds.Close()

	e := NewEngine(ds)
	for _, q := range queries {
		if err := e.Ensure(q); err != nil {
			t.Fatal(err)
		}
	}

	// The script exercises every delta leg: plain inserts, a negated-atom
	// insert and delete (pre-insert / post-delete overlays on S), and a
	// positive-atom delete (pre-delete overlay on R).
	edits := []db.Edit{
		db.Insertion(db.NewFact("R", "a", "b")),
		db.Insertion(db.NewFact("S", "b")),
		db.Insertion(db.NewFact("S", "a")),
		db.Deletion(db.NewFact("S", "a")),
		db.Deletion(db.NewFact("R", "a", "b")),
	}
	for i, ed := range edits {
		before := ds.Generation()
		changed, err := ds.Apply(ed)
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("edit %d (%v) was a no-op; script broken", i, ed)
		}
		e.Apply(ed)
		if got := ds.Generation(); got != before+1 {
			t.Fatalf("edit %d (%v): generation %d -> %d; view maintenance edited the store", i, ed, before, got)
		}
		for qi, q := range queries {
			if !e.Covers(q) {
				t.Fatalf("edit %d (%v): engine stale for query %d", i, ed, qi)
			}
		}
	}

	// The durable log must hold exactly one record per semantic edit. Its
	// garbage ratio, (records - facts) / records, grows with the record
	// count, so it pins the count.
	st := ds.Stats()
	if want := float64(len(edits)-st.TotalFacts) / float64(len(edits)); st.GarbageRatio != want {
		t.Errorf("log garbage ratio %v with %d facts, want %v: %d records (semantic edits only)",
			st.GarbageRatio, st.TotalFacts, want, len(edits))
	}
}
