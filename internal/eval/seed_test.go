package eval

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// Regression tests for the seed-validation bug: search documented that it
// validated the seed up front but only checked seeded inequalities — atoms
// fully grounded by the seed (or by constants) were never tested against D
// before the enumeration started. validateSeed now prunes those immediately;
// these tests pin the semantics.

func seedTestSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
}

// TestGroundAtomValidatedAgainstDB: a query whose atom is ground (all
// constants) yields answers iff that fact is present.
func TestGroundAtomValidatedAgainstDB(t *testing.T) {
	s := seedTestSchema()
	d := db.New(s)
	if _, err := d.InsertFact(db.NewFact("S", "C1", "C2")); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("(x) :- R(C0, C1), S(C1, x).")

	// R(C0, C1) is absent: the whole enumeration must prune to nothing.
	if got := Result(q, d, NoCache()); len(got) != 0 {
		t.Fatalf("Result = %v with ground atom R(C0,C1) absent, want empty", got)
	}
	if Holds(q, d, Assignment{}, NoCache()) {
		t.Fatal("Holds = true with ground atom absent")
	}

	// Inserting the ground fact turns the answers on.
	if _, err := d.InsertFact(db.NewFact("R", "C0", "C1")); err != nil {
		t.Fatal(err)
	}
	want := []db.Tuple{{"C2"}}
	if got := Result(q, d, NoCache()); !tuplesEqual(got, want) {
		t.Fatalf("Result = %v with ground atom present, want %v", got, want)
	}
}

// TestSeedGroundsAtomAgainstDB: a seed that fully grounds an atom to an
// absent fact has no extensions, and one grounding it to a present fact
// keeps its extensions — for Extensions and Holds alike.
func TestSeedGroundsAtomAgainstDB(t *testing.T) {
	s := seedTestSchema()
	d := db.New(s)
	for _, f := range []db.Fact{
		db.NewFact("R", "C0", "C1"),
		db.NewFact("S", "C1", "C2"),
		db.NewFact("S", "C1", "C0"),
	} {
		if _, err := d.InsertFact(f); err != nil {
			t.Fatal(err)
		}
	}
	q := cq.MustParse("(x) :- R(u, v), S(v, x).")

	// Seed {u:C2, v:C2} grounds R(u,v) to the absent R(C2,C2).
	if exts := Extensions(q, d, Assignment{"u": "C2", "v": "C2"}, NoCache()); len(exts) != 0 {
		t.Fatalf("Extensions = %v for seed grounding an absent atom, want none", exts)
	}
	if Holds(q, d, Assignment{"u": "C2", "v": "C2"}, NoCache()) {
		t.Fatal("Holds = true for seed grounding an absent atom")
	}

	// Seed {u:C0, v:C1} grounds R(u,v) to the present R(C0,C1).
	exts := Extensions(q, d, Assignment{"u": "C0", "v": "C1"}, NoCache())
	if len(exts) != 2 {
		t.Fatalf("Extensions = %v for valid seed, want 2 (x=C0 and x=C2)", exts)
	}
	if !Holds(q, d, Assignment{"u": "C0", "v": "C1"}, NoCache()) {
		t.Fatal("Holds = false for valid seed")
	}
}

// TestSeedViolatedInequalityStillPruned: the pre-existing inequality check
// keeps working alongside the new ground-atom check.
func TestSeedViolatedInequalityStillPruned(t *testing.T) {
	s := seedTestSchema()
	d := db.New(s)
	if _, err := d.InsertFact(db.NewFact("R", "C0", "C0")); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("(x, y) :- R(x, y), x != y.")
	if exts := Extensions(q, d, Assignment{"x": "C0", "y": "C0"}, NoCache()); len(exts) != 0 {
		t.Fatalf("Extensions = %v for seed violating x != y, want none", exts)
	}
}
