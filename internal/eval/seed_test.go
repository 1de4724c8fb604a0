package eval

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/schema"
)

// Regression tests for the seed-validation bug: search documented that it
// validated the seed up front but only checked seeded inequalities — atoms
// fully grounded by the seed (or by constants) were never tested against D
// before the enumeration started. The join search now prunes those at its
// first node (a ground atom whose fact is absent matches no tuple, so it is
// joined first and empties the branch) and checks seeded inequalities before
// it; these tests pin the semantics.

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
// keeps its extensions — for Best and Holds alike.
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
	if exts := Best(q, d, Assignment{"u": "C2", "v": "C2"}, 0); len(exts) != 0 {
		t.Fatalf("Best = %v for seed grounding an absent atom, want none", exts)
	}
	if Holds(q, d, Assignment{"u": "C2", "v": "C2"}, NoCache()) {
		t.Fatal("Holds = true for seed grounding an absent atom")
	}

	// Seed {u:C0, v:C1} grounds R(u,v) to the present R(C0,C1).
	exts := Best(q, d, Assignment{"u": "C0", "v": "C1"}, 0)
	if len(exts) != 2 {
		t.Fatalf("Best = %v for valid seed, want 2 (x=C0 and x=C2)", exts)
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
	if exts := Best(q, d, Assignment{"x": "C0", "y": "C0"}, 0); len(exts) != 0 {
		t.Fatalf("Best = %v for seed violating x != y, want none", exts)
	}
}

// TestSeedOnlyVariableKept: a seed may bind a variable the query lacks. Every
// enumerated assignment keeps that binding, and a Row resolves it.
func TestSeedOnlyVariableKept(t *testing.T) {
	d := db.New(seedTestSchema())
	for _, f := range []db.Fact{db.NewFact("R", "C0", "C1"), db.NewFact("R", "C2", "C1")} {
		if _, err := d.InsertFact(f); err != nil {
			t.Fatal(err)
		}
	}
	q := cq.MustParse("(x) :- R(x, y).")
	seed := Assignment{"zz": "kept", "y": "C1"}
	exts := Best(q, d, seed, 0)
	if len(exts) != 2 {
		t.Fatalf("Best = %v, want 2", exts)
	}
	for _, a := range exts {
		if a["zz"] != "kept" || a["y"] != "C1" {
			t.Errorf("extension %v lost a seed binding", a)
		}
	}
	rows := 0
	Each(q, d, seed, func(r *Row) bool {
		rows++
		if v, ok := r.Resolve(cq.Var("zz")); !ok || v != "kept" {
			t.Errorf("Row.Resolve(zz) = %q, %v; want kept, true", v, ok)
		}
		if v, ok := r.Resolve(cq.Const("K")); !ok || v != "K" {
			t.Errorf("Row.Resolve(K) = %q, %v; want K, true", v, ok)
		}
		if _, ok := r.Resolve(cq.Var("nope")); ok {
			t.Error("Row.Resolve(nope) resolved a variable neither the query nor the seed has")
		}
		return true
	})
	if rows != 2 {
		t.Errorf("Each yielded %d rows, want 2", rows)
	}
}

// TestUnknownRelationYieldsNothing: an atom over a relation the reader lacks
// empties the enumeration instead of failing.
func TestUnknownRelationYieldsNothing(t *testing.T) {
	d := db.New(seedTestSchema())
	if _, err := d.InsertFact(db.NewFact("R", "C0", "C1")); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("(x) :- R(x, y), T(y).")
	if got := Result(q, d, NoCache()); len(got) != 0 {
		t.Fatalf("Result = %v over an unknown relation, want empty", got)
	}
}

// TestHoldsAllocs: a seeded Holds allocates a small constant per call, on
// the in-memory store and on a disk store. It compiles into a pooled
// searcher and scans postings in place.
func TestHoldsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled searchers at random")
	}
	mem := dataset.Soccer(dataset.SoccerOpts{})
	disk, err := db.OpenDisk(t.TempDir(), mem.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if _, err := db.Copy(disk, mem); err != nil {
		t.Fatal(err)
	}
	const maxCold = 2
	for _, store := range []struct {
		name string
		d    db.Reader
	}{{"mem", mem}, {"disk", disk}} {
		for i, q := range dataset.SoccerQueries() {
			answers := Result(q, store.d, NoCache())
			if len(answers) == 0 {
				t.Fatalf("%s Q%d: no answers to seed with", store.name, i+1)
			}
			seed, _ := PartialFromAnswer(q, answers[0])
			if !Holds(q, store.d, seed, NoCache()) {
				t.Fatalf("%s Q%d: Holds(%v) = false for an answer", store.name, i+1, seed)
			}
			if n := testing.AllocsPerRun(100, func() { Holds(q, store.d, seed, NoCache()) }); n > maxCold {
				t.Errorf("%s Q%d: a cold Holds allocates %.1f times per call, want at most %d", store.name, i+1, n, maxCold)
			}
		}
	}
}
