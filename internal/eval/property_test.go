package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// randQuery builds a random safe query over R(a,b), S(b,c): 1-3 positive
// atoms with random variable/constant arguments, plus optional inequalities
// and negated atoms over bound variables.
func randQuery(rng *rand.Rand) *cq.Query {
	vars := []string{"x", "y", "z", "w"}
	consts := []string{"C0", "C1", "C2"}
	term := func() cq.Term {
		if rng.Intn(4) == 0 {
			return cq.Const(consts[rng.Intn(len(consts))])
		}
		return cq.Var(vars[rng.Intn(len(vars))])
	}
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 2}}

	q := &cq.Query{}
	nAtoms := 1 + rng.Intn(3)
	for i := 0; i < nAtoms; i++ {
		rel := rels[rng.Intn(len(rels))]
		atom := cq.Atom{Rel: rel.name}
		for j := 0; j < rel.arity; j++ {
			atom.Args = append(atom.Args, term())
		}
		q.Atoms = append(q.Atoms, atom)
	}
	bound := map[string]bool{}
	for _, a := range q.Atoms {
		for v := range a.Vars() {
			bound[v] = true
		}
	}
	var boundVars []string
	for _, v := range vars {
		if bound[v] {
			boundVars = append(boundVars, v)
		}
	}
	if len(boundVars) == 0 {
		// All-constant query: a boolean query; give it an empty head.
		return q
	}
	// Head: a random non-empty subset of bound variables.
	for _, v := range boundVars {
		if rng.Intn(2) == 0 {
			q.Head = append(q.Head, cq.Var(v))
		}
	}
	if len(q.Head) == 0 {
		q.Head = append(q.Head, cq.Var(boundVars[0]))
	}
	// Optional inequality over bound variables.
	if len(boundVars) >= 2 && rng.Intn(2) == 0 {
		q.Ineqs = append(q.Ineqs, cq.Ineq{
			Left:  cq.Var(boundVars[rng.Intn(len(boundVars))]),
			Right: cq.Var(boundVars[rng.Intn(len(boundVars))]),
		})
	}
	// Optional safe negated atom.
	if rng.Intn(3) == 0 {
		rel := rels[rng.Intn(len(rels))]
		atom := cq.Atom{Rel: rel.name}
		for j := 0; j < rel.arity; j++ {
			if rng.Intn(3) == 0 {
				atom.Args = append(atom.Args, cq.Const(consts[rng.Intn(len(consts))]))
			} else {
				atom.Args = append(atom.Args, cq.Var(boundVars[rng.Intn(len(boundVars))]))
			}
		}
		q.Negs = append(q.Negs, atom)
	}
	return q
}

func randDB(rng *rand.Rand, s *schema.Schema) *db.Database {
	d := db.New(s)
	consts := []string{"C0", "C1", "C2"}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		rel := "R"
		if rng.Intn(2) == 0 {
			rel = "S"
		}
		d.InsertFact(db.NewFact(rel, consts[rng.Intn(3)], consts[rng.Intn(3)]))
	}
	return d
}

// TestEvalSoundnessProperty: every assignment returned by Eval really is a
// valid assignment — atoms map to facts of D, inequalities hold, negated
// atoms match nothing — and every returned witness is a subset of D.
func TestEvalSoundnessProperty(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		q := randQuery(rng)
		if err := q.Validate(s); err != nil {
			continue // generator occasionally builds duplicate-variable heads etc.
		}
		d := randDB(rng, s)
		for _, a := range Eval(q, d) {
			if !a.TotalFor(q) {
				t.Fatalf("trial %d: partial assignment returned: %v for %s", trial, a, q)
			}
			for _, atom := range q.Atoms {
				f, ok := a.AtomFact(atom)
				if !ok || !d.Has(f) {
					t.Fatalf("trial %d: atom %v not grounded in D under %v (query %s)", trial, atom, a, q)
				}
			}
			for _, e := range q.Ineqs {
				if !a.IneqHolds(e) {
					t.Fatalf("trial %d: inequality %v violated by %v", trial, e, a)
				}
			}
			for _, atom := range q.Negs {
				if f, ok := a.AtomFact(atom); ok && d.Has(f) {
					t.Fatalf("trial %d: negated atom %v matched %v", trial, atom, f)
				}
			}
			for _, f := range a.Witness(q) {
				if !d.Has(f) {
					t.Fatalf("trial %d: witness fact %v not in D", trial, f)
				}
			}
		}
	}
}

// TestEvalCompletenessProperty: indexed evaluation agrees with the naive
// reference on random queries and databases (including negation).
func TestEvalCompletenessProperty(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 300; trial++ {
		q := randQuery(rng)
		if err := q.Validate(s); err != nil {
			continue
		}
		d := randDB(rng, s)
		fast := Eval(q, d)
		slow := NaiveEval(q, d)
		if len(fast) != len(slow) {
			t.Fatalf("trial %d (%s): %d vs %d assignments", trial, q, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Key() != slow[i].Key() {
				t.Fatalf("trial %d (%s): assignment %d differs", trial, q, i)
			}
		}
	}
}

// TestAnswerHoldsConsistentWithResult: AnswerHolds(t) iff t ∈ Result.
func TestAnswerHoldsConsistentWithResult(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		q := randQuery(rng)
		if err := q.Validate(s); err != nil || len(q.Head) == 0 {
			continue
		}
		d := randDB(rng, s)
		res := Result(q, d)
		inRes := make(map[string]bool, len(res))
		for _, tp := range res {
			inRes[tp.Key()] = true
			if !AnswerHolds(q, d, tp) {
				t.Fatalf("trial %d: %v ∈ Result but AnswerHolds false (query %s)", trial, tp, q)
			}
		}
		// Probe a few random tuples not in the result.
		consts := []string{"C0", "C1", "C2"}
		for probe := 0; probe < 5; probe++ {
			tp := make(db.Tuple, len(q.Head))
			for i := range tp {
				tp[i] = consts[rng.Intn(3)]
			}
			if !inRes[tp.Key()] && AnswerHolds(q, d, tp) {
				t.Fatalf("trial %d: %v ∉ Result but AnswerHolds true (query %s)", trial, tp, q)
			}
		}
	}
}

// TestParserRoundTripProperty: String() of a random valid query reparses to
// an identical query.
func TestParserRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 300; trial++ {
		q := randQuery(rng)
		text := q.String()
		q2, err := cq.Parse(text)
		if err != nil {
			t.Fatalf("trial %d: reparse of %q failed: %v", trial, text, err)
		}
		if q2.String() != text {
			t.Fatalf("trial %d: round trip changed %q -> %q", trial, text, q2.String())
		}
	}
}

// TestDistanceTriangleInequality: the symmetric-difference distance satisfies
// the triangle inequality (it is a metric on instances).
func TestDistanceTriangleInequality(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		a := randDB(rng, s)
		b := randDB(rng, s)
		c := randDB(rng, s)
		if db.Distance(a, c) > db.Distance(a, b)+db.Distance(b, c) {
			t.Fatalf("trial %d: d(a,c)=%d > d(a,b)+d(b,c)=%d+%d",
				trial, db.Distance(a, c), db.Distance(a, b), db.Distance(b, c))
		}
	}
	_ = fmt.Sprint() // keep fmt for debugging convenience
}
