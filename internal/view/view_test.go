package view

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/schema"
)

func rowsKey(ts []db.Tuple) string {
	out := ""
	for _, t := range ts {
		out += t.Key() + ";"
	}
	return out
}

func TestViewMaterialization(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	v := New("winners", q, d)
	if got, want := rowsKey(v.Rows()), rowsKey(eval.Result(q, d)); got != want {
		t.Errorf("materialized rows differ from evaluation")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	// Support of (ESP) = 12 assignments (6 witnesses × 2 orderings of d1/d2).
	if got := v.Support(db.Tuple{"ESP"}); got != 12 {
		t.Errorf("Support(ESP) = %d, want 12", got)
	}
	if v.Support(db.Tuple{"ITA"}) != 0 {
		t.Errorf("Support of absent answer should be 0")
	}
}

func TestViewIncrementalInsert(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	v := New("winners", q, d)
	// Adding Teams(ITA, EU) makes (ITA) appear (two Italian final wins are
	// already in D).
	f := db.NewFact("Teams", "ITA", "EU")
	d.InsertFact(f)
	appeared, disappeared := v.Apply(d, db.Insertion(f))
	if len(appeared) != 1 || !appeared[0].Equal(db.Tuple{"ITA"}) {
		t.Errorf("appeared = %v, want [(ITA)]", appeared)
	}
	if len(disappeared) != 0 {
		t.Errorf("disappeared = %v, want none", disappeared)
	}
	if !v.Has(db.Tuple{"ITA"}) {
		t.Errorf("view does not contain (ITA)")
	}
}

// TestViewSupportToZeroAndBack drives (ESP)'s support to 0 and back across
// consecutive Apply calls, then refreshes the view. After every step the
// maintained view must match a view built from scratch over the same state:
// an answer that left the view and came back must be counted afresh, never
// through the entry it left behind.
func TestViewSupportToZeroAndBack(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	v := New("winners", q, d)
	esp := db.Tuple{"ESP"}
	check := func(step string) {
		t.Helper()
		fresh := New("fresh", q, d)
		if got, want := rowsKey(v.Rows()), rowsKey(fresh.Rows()); got != want {
			t.Fatalf("%s: Rows = %s, want %s", step, got, want)
		}
		for _, a := range append(fresh.Rows(), esp) {
			if got, want := v.Support(a), fresh.Support(a); got != want {
				t.Fatalf("%s: Support(%v) = %d, want %d", step, a, got, want)
			}
		}
	}
	finals := []db.Fact{
		db.NewFact("Games", "12.07.98", "ESP", "NED", "Final", "4:2"),
		db.NewFact("Games", "17.07.94", "ESP", "NED", "Final", "3:1"),
		db.NewFact("Games", "11.07.10", "ESP", "NED", "Final", "1:0"),
	}
	check("initial")
	edits := make([]db.Edit, 0, 2*len(finals))
	for _, f := range finals {
		edits = append(edits, db.Deletion(f))
	}
	for i := len(finals) - 1; i >= 0; i-- {
		edits = append(edits, db.Insertion(finals[i]))
	}
	for i, e := range edits {
		if changed, err := d.Apply(e); err != nil || !changed {
			t.Fatalf("edit %d (%v): changed %v, err %v", i, e, changed, err)
		}
		v.Apply(d, e)
		check(fmt.Sprintf("after edit %d (%v)", i, e))
		if i == len(finals)-1 && v.Has(esp) {
			t.Fatalf("(ESP) still in the view with one final left")
		}
	}
	v.Refresh(d)
	check("after Refresh")
	if got := v.Support(esp); got != 12 {
		t.Fatalf("Support(ESP) = %d after the round trip, want 12", got)
	}
}

func TestViewIncrementalDelete(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	v := New("winners", q, d)
	// Deleting two of Spain's three fake final wins leaves one win: (ESP)
	// must disappear exactly when its support hits zero.
	for i, g := range [][]string{
		{"12.07.98", "ESP", "NED", "Final", "4:2"},
		{"17.07.94", "ESP", "NED", "Final", "3:1"},
		{"25.06.78", "ESP", "NED", "Final", "1:0"},
	} {
		f := db.NewFact("Games", g...)
		d.DeleteFact(f)
		_, disappeared := v.Apply(d, db.Deletion(f))
		// ESP has 2 real wins in D? No: only 2010 remains genuine plus the
		// fakes. After removing two fakes, ESP still has 2 wins (2010 + one
		// fake); after the third deletion only 2010 remains -> disappears.
		if i < 1 && len(disappeared) != 0 {
			t.Errorf("deletion %d: disappeared = %v too early", i, disappeared)
		}
	}
	if v.Has(db.Tuple{"ESP"}) {
		t.Errorf("(ESP) still in view after all fake finals were deleted")
	}
	if !v.Has(db.Tuple{"GER"}) {
		t.Errorf("(GER) should be unaffected")
	}
}

// TestViewIncrementalMatchesRefresh fuzzes random edit sequences and checks
// the incremental state always equals a full recompute (support counts
// included).
func TestViewIncrementalMatchesRefresh(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	queries := []*cq.Query{
		cq.MustParse("(x) :- R(x, y), S(y, z)"),
		cq.MustParse("(x, z) :- R(x, y), S(y, z), x != z"),
		cq.MustParse("(x) :- R(x, y), R(y, x)"),
	}
	vals := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(13))
	for qi, q := range queries {
		d := db.New(s)
		v := New("v", q, d)
		for step := 0; step < 300; step++ {
			rel := "R"
			if rng.Intn(2) == 0 {
				rel = "S"
			}
			f := db.NewFact(rel, vals[rng.Intn(4)], vals[rng.Intn(4)])
			var e db.Edit
			if rng.Intn(2) == 0 {
				e = db.Insertion(f)
			} else {
				e = db.Deletion(f)
			}
			changed, err := d.Apply(e)
			if err != nil {
				t.Fatal(err)
			}
			if !changed {
				continue
			}
			v.Apply(d, e)

			ref := New("ref", q, d)
			if rowsKey(v.Rows()) != rowsKey(ref.Rows()) {
				t.Fatalf("query %d step %d (%v): incremental rows %v != recomputed %v",
					qi, step, e, v.Rows(), ref.Rows())
			}
			for _, tp := range ref.Rows() {
				if v.Support(tp) != ref.Support(tp) {
					t.Fatalf("query %d step %d: support(%v) = %d, want %d",
						qi, step, tp, v.Support(tp), ref.Support(tp))
				}
			}
		}
	}
}

// TestViewApplyAcrossViews: one edit flips answers in every view it touches.
// Inserting Teams(ITA, EU) makes (ITA) appear among the winners, and Pirlo
// (and, wrongly, Totti) among the scorers.
func TestViewApplyAcrossViews(t *testing.T) {
	d, _ := dataset.Figure1()
	winners := New("winners", dataset.IntroQ1(), d)
	scorers := New("scorers", dataset.IntroQ2(), d)
	e := db.Insertion(db.NewFact("Teams", "ITA", "EU"))
	if changed, err := d.Apply(e); err != nil || !changed {
		t.Fatalf("Apply(%v) = %v, %v", e, changed, err)
	}
	if appeared, disappeared := winners.Apply(d, e); len(appeared) != 1 || len(disappeared) != 0 {
		t.Errorf("winners: appeared %v, disappeared %v; want (ITA) only", appeared, disappeared)
	}
	if appeared, disappeared := scorers.Apply(d, e); len(appeared) != 2 || len(disappeared) != 0 {
		t.Errorf("scorers: appeared %v, disappeared %v; want Pirlo and Totti", appeared, disappeared)
	}
}

func TestUnifyAtomRepeatedVars(t *testing.T) {
	atom := cq.Atom{Rel: "R", Args: []cq.Term{cq.Var("x"), cq.Var("x")}}
	if _, ok := unifyAtom(atom, db.Tuple{"a", "b"}); ok {
		t.Errorf("conflicting repeated variable should not unify")
	}
	seed, ok := unifyAtom(atom, db.Tuple{"a", "a"})
	if !ok || seed["x"] != "a" {
		t.Errorf("unify = %v, %v", seed, ok)
	}
	constAtom := cq.Atom{Rel: "R", Args: []cq.Term{cq.Const("k"), cq.Var("y")}}
	if _, ok := unifyAtom(constAtom, db.Tuple{"other", "v"}); ok {
		t.Errorf("constant mismatch should not unify")
	}
	if _, ok := unifyAtom(constAtom, db.Tuple{"k"}); ok {
		t.Errorf("arity mismatch should not unify")
	}
}

// TestMaintainedReadsAllocateNothing: with an engine registered for the
// store, the cleaner's TRUE(Q,t)? check (eval.AnswerHolds) and its
// insertion-loop probe (eval.Holds with no seed) are served from the
// maintained view without allocating, whether t is an answer, a tuple
// outside Q(D), or one no assignment of Q's head can produce.
func TestMaintainedReadsAllocateNothing(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	e := NewEngine(d)
	if err := e.Ensure(q); err != nil {
		t.Fatal(err)
	}
	eval.SetMaintainer(d.ID(), e)
	defer eval.ClearMaintainer(d.ID(), e)
	for _, tc := range []struct {
		t    db.Tuple
		want bool
	}{{db.Tuple{"GER"}, true}, {db.Tuple{"BRA"}, false}, {db.Tuple{"GER", "ITA"}, false}} {
		if got := eval.AnswerHolds(q, d, tc.t); got != tc.want {
			t.Fatalf("AnswerHolds(%v) = %v, want %v", tc.t, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { eval.AnswerHolds(q, d, tc.t) }); n != 0 {
			t.Errorf("a maintained AnswerHolds(%v) allocates %.1f times per call, want 0", tc.t, n)
		}
	}
	if !eval.Holds(q, d, nil) {
		t.Fatal("Holds(q, d, nil) = false on a query with answers")
	}
	if n := testing.AllocsPerRun(100, func() { eval.Holds(q, d, nil) }); n != 0 {
		t.Errorf("a maintained Holds(q, d, nil) allocates %.1f times per call, want 0", n)
	}
}
