package eval

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/schema"
)

func tuplesEqual(a, b []db.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestIntroQ1Result reproduces §1: Q1(D) = {(GER), (ESP)} and
// Q1(DG) = {(GER), (ITA)}.
func TestIntroQ1Result(t *testing.T) {
	d, dg := dataset.Figure1()
	q := dataset.IntroQ1()
	got := Result(q, d)
	want := []db.Tuple{{"ESP"}, {"GER"}}
	if !tuplesEqual(got, want) {
		t.Errorf("Q1(D) = %v, want %v", got, want)
	}
	gotG := Result(q, dg)
	wantG := []db.Tuple{{"GER"}, {"ITA"}}
	if !tuplesEqual(gotG, wantG) {
		t.Errorf("Q1(DG) = %v, want %v", gotG, wantG)
	}
}

// TestExample22Assignments reproduces Example 2.2: answer (GER) has exactly
// two assignments (d1/d2 swapped).
func TestExample22Assignments(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	asgs := AssignmentsFor(q, d, db.Tuple{"GER"})
	if len(asgs) != 2 {
		t.Fatalf("A((GER),Q1,D) has %d assignments, want 2", len(asgs))
	}
	for _, a := range asgs {
		if a["x"] != "GER" || a["y"] != "ARG" || a["z"] != "ARG" {
			t.Errorf("assignment %v does not map x,y,z as in Example 2.2", a)
		}
		if a["d1"] == a["d2"] {
			t.Errorf("assignment %v violates d1 != d2", a)
		}
	}
	if asgs[0]["d1"] != asgs[1]["d2"] || asgs[0]["d2"] != asgs[1]["d1"] {
		t.Errorf("the two assignments should swap d1 and d2: %v", asgs)
	}
}

// TestExample46Witnesses reproduces Example 4.6: the wrong answer (ESP) is
// supported by exactly six witnesses, each containing Teams(ESP, EU).
func TestExample46Witnesses(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	ws := Witnesses(q, d, db.Tuple{"ESP"})
	if len(ws) != 6 {
		t.Fatalf("witnesses for (ESP) = %d, want 6", len(ws))
	}
	team := db.NewFact("Teams", "ESP", "EU")
	for _, w := range ws {
		if len(w) != 3 {
			t.Errorf("witness %v has %d facts, want 3 (two games + team)", w, len(w))
		}
		found := false
		for _, f := range w {
			if f.Equal(team) {
				found = true
			}
		}
		if !found {
			t.Errorf("witness %v misses Teams(ESP, EU)", w)
		}
	}
}

// TestExample54Subqueries reproduces Example 5.4: the Players+Goals+Games
// subquery of Q2|Pirlo has exactly one valid assignment; Teams(y, EU) has 3.
func TestExample54Subqueries(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ2()
	qt, err := q.Embed(db.Tuple{"Andrea Pirlo"})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	qPrime := cq.SubqueryOf(qt, []int{0, 1, 2}) // Players, Goals, Games
	qDouble := cq.SubqueryOf(qt, []int{3})      // Teams(y, EU)
	asgs := Eval(qPrime, d)
	if len(asgs) != 1 {
		t.Fatalf("A(Q',D) = %d assignments, want 1", len(asgs))
	}
	a := asgs[0]
	if a["y"] != "ITA" || a["z"] != "1979" || a["d"] != "09.07.06" || a["v"] != "FRA" || a["u"] != "5:3" {
		t.Errorf("α1 = %v, want the Example 5.4 bindings", a)
	}
	asgs2 := Eval(qDouble, d)
	if len(asgs2) != 3 {
		t.Fatalf("A(Q'',D) = %d assignments, want 3 (GER, ESP, BRA)", len(asgs2))
	}
	// α1 is total for Q2|t.
	if !a.TotalFor(qt) {
		t.Errorf("α1 should be total for Q2|t; vars=%v a=%v", qt.Vars(), a)
	}
	// The Q'' assignments are partial and non-satisfiable w.r.t. D... except
	// they bind y only; satisfiability w.r.t. D means extension to a valid
	// total assignment. y=ITA works in neither D (no Teams(ITA,EU) in D), and
	// y=GER/ESP/BRA have no Pirlo tuples, so none are satisfiable... but
	// α(y=ITA) is not among them. Verify none of the three extends.
	for _, p := range asgs2 {
		if Holds(qt, d, p) {
			// y -> GER/ESP/BRA cannot extend: Players(Pirlo, y, ...) absent.
			t.Errorf("partial %v unexpectedly satisfiable w.r.t. D", p)
		}
	}
}

// TestExample22NonSatisfiable reproduces Example 2.2's β: {x -> ITA, y -> FRA}
// is non-satisfiable w.r.t. D.
func TestExample22NonSatisfiable(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	if Holds(q, d, Assignment{"x": "ITA", "y": "FRA"}) {
		t.Errorf("β = {x->ITA, y->FRA} should be non-satisfiable w.r.t. D")
	}
	if !Holds(q, d, Assignment{"x": "GER"}) {
		t.Errorf("{x->GER} should be satisfiable w.r.t. D")
	}
}

func TestAnswerHolds(t *testing.T) {
	d, dg := dataset.Figure1()
	q := dataset.IntroQ1()
	if !AnswerHolds(q, d, db.Tuple{"ESP"}) {
		t.Errorf("(ESP) should hold in Q1(D)")
	}
	if AnswerHolds(q, dg, db.Tuple{"ESP"}) {
		t.Errorf("(ESP) should not hold in Q1(DG)")
	}
	if AnswerHolds(q, d, db.Tuple{"ITA"}) {
		t.Errorf("(ITA) should not hold in Q1(D)")
	}
	if !AnswerHolds(q, dg, db.Tuple{"ITA"}) {
		t.Errorf("(ITA) should hold in Q1(DG)")
	}
	if AnswerHolds(q, d, db.Tuple{"bad", "arity"}) {
		t.Errorf("arity-mismatched answer should not hold")
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	s := schema.New(schema.Relation{Name: "E", Attrs: []string{"src", "dst"}})
	d := db.New(s)
	d.InsertFact(db.NewFact("E", "a", "a"))
	d.InsertFact(db.NewFact("E", "a", "b"))
	q := cq.MustParse("(x) :- E(x, x)")
	got := Result(q, d)
	if len(got) != 1 || got[0][0] != "a" {
		t.Errorf("Result = %v, want [(a)] (self-loop only)", got)
	}
}

func TestConstantsInAtoms(t *testing.T) {
	d, _ := dataset.Figure1()
	q := cq.MustParse("(x) :- Games(d, x, ARG, Final, u)")
	got := Result(q, d)
	if len(got) != 1 || got[0][0] != "GER" {
		t.Errorf("Result = %v, want [(GER)]", got)
	}
}

func TestIneqVarConst(t *testing.T) {
	d, _ := dataset.Figure1()
	q := cq.MustParse("(x) :- Teams(x, c), c != EU")
	got := Result(q, d)
	if len(got) != 1 || got[0][0] != "NED" {
		t.Errorf("Result = %v, want [(NED)] (only NED maps to SA in D)", got)
	}
}

func TestEmptyResult(t *testing.T) {
	d, _ := dataset.Figure1()
	q := cq.MustParse("(x) :- Teams(x, AS)")
	if got := Result(q, d); len(got) != 0 {
		t.Errorf("Result = %v, want empty", got)
	}
	if Holds(q, d, Assignment{}) {
		t.Errorf("Holds should be false on empty result")
	}
}

func TestUnionEval(t *testing.T) {
	d, _ := dataset.Figure1()
	u := cq.MustParseUnion("(x) :- Teams(x, EU) ; (x) :- Teams(x, SA)")
	got := ResultUnion(u, d)
	if len(got) != 4 {
		t.Errorf("union result = %v, want 4 teams", got)
	}
	if !AnswerHoldsUnion(u, d, db.Tuple{"NED"}) {
		t.Errorf("(NED) should hold in the union")
	}
	if AnswerHoldsUnion(u, d, db.Tuple{"ITA"}) {
		t.Errorf("(ITA) should not hold in the union over D")
	}
}

// TestEvalAgainstNaive cross-checks the indexed evaluator against the naive
// reference on randomized databases and a battery of query shapes.
func TestEvalAgainstNaive(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
		schema.Relation{Name: "T", Attrs: []string{"c", "d", "e"}},
	)
	queries := []*cq.Query{
		cq.MustParse("(x, z) :- R(x, y), S(y, z)"),
		cq.MustParse("(x) :- R(x, y), S(y, z), x != z"),
		cq.MustParse("(x, w) :- R(x, y), S(y, z), T(z, w, v), w != x, v != C0"),
		cq.MustParse("(x) :- R(x, x)"),
		cq.MustParse("(y) :- R(C1, y)"),
		cq.MustParse("(x, y, z, w, v) :- R(x, y), S(y, z), T(z, w, v)"),
	}
	rng := rand.New(rand.NewSource(99))
	vals := []string{"C0", "C1", "C2", "C3", "C4"}
	for trial := 0; trial < 25; trial++ {
		d := db.New(s)
		for i := 0; i < 30; i++ {
			d.InsertFact(db.NewFact("R", vals[rng.Intn(5)], vals[rng.Intn(5)]))
			d.InsertFact(db.NewFact("S", vals[rng.Intn(5)], vals[rng.Intn(5)]))
			d.InsertFact(db.NewFact("T", vals[rng.Intn(5)], vals[rng.Intn(5)], vals[rng.Intn(5)]))
		}
		for qi, q := range queries {
			fast := Eval(q, d)
			slow := NaiveEval(q, d)
			if len(fast) != len(slow) {
				t.Fatalf("trial %d query %d: indexed %d assignments, naive %d", trial, qi, len(fast), len(slow))
			}
			for i := range fast {
				if fast[i].Key() != slow[i].Key() {
					t.Fatalf("trial %d query %d: assignment %d differs: %v vs %v", trial, qi, i, fast[i], slow[i])
				}
			}
			if !tuplesEqual(Result(q, d), NaiveResult(q, d)) {
				t.Fatalf("trial %d query %d: results differ", trial, qi)
			}
		}
	}
}

func TestHeadTupleAndPartialFromAnswer(t *testing.T) {
	q := cq.MustParse("(x, Final) :- Games(d, x, y, Final, u)")
	a := Assignment{"x": "GER"}
	tp, ok := a.HeadTuple(q)
	if !ok || tp[0] != "GER" || tp[1] != "Final" {
		t.Errorf("HeadTuple = %v, %v", tp, ok)
	}
	if _, ok := (Assignment{}).HeadTuple(q); ok {
		t.Errorf("HeadTuple with unbound head var should fail")
	}
	if _, ok := PartialFromAnswer(q, db.Tuple{"GER", "Semi"}); ok {
		t.Errorf("PartialFromAnswer conflicting with head const should fail")
	}
	p, ok := PartialFromAnswer(q, db.Tuple{"GER", "Final"})
	if !ok || p["x"] != "GER" {
		t.Errorf("PartialFromAnswer = %v, %v", p, ok)
	}
}

func TestWitnessDedupAcrossAtoms(t *testing.T) {
	// Both atoms can map to the same fact; the witness is a set.
	s := schema.New(schema.Relation{Name: "R", Attrs: []string{"a", "b"}})
	d := db.New(s)
	d.InsertFact(db.NewFact("R", "x", "x"))
	q := cq.MustParse("(a) :- R(a, b), R(b, a)")
	ws := Witnesses(q, d, db.Tuple{"x"})
	if len(ws) != 1 || len(ws[0]) != 1 {
		t.Errorf("witnesses = %v, want one singleton witness", ws)
	}
}

func TestAssignmentStringAndKey(t *testing.T) {
	a := Assignment{"y": "2", "x": "1"}
	if got, want := a.String(), "{x -> 1, y -> 2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	b := Assignment{"x": "1", "y": "2"}
	if a.Key() != b.Key() {
		t.Errorf("Key not canonical")
	}
	c := Assignment{"x": "1", "y": "3"}
	if a.Key() == c.Key() {
		t.Errorf("distinct assignments share Key")
	}
}
