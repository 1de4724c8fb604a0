package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/schema"
)

// TestCleanUnionUnsatisfiableDisjunct is the minimized regression from the
// check harness (seed 24): a union with an unsatisfiable disjunct (y != y)
// used to abort the whole run when the crowd proposed a missing answer that
// grounded the inequality to equal constants — q.Embed returned a plain
// error instead of "this disjunct cannot produce t". CleanUnion must skip
// the disjunct and converge through the others.
func TestCleanUnionUnsatisfiableDisjunct(t *testing.T) {
	s := schema.New(schema.Relation{Name: "R0", Attrs: []string{"a0"}})
	dg := db.New(s)
	dg.InsertFact(db.NewFact("R0", "C5"))
	d := db.New(s) // dirty: empty, the answer is missing

	sat, err := cq.Parse("(y) :- R0(y), y != 'C9'.")
	if err != nil {
		t.Fatal(err)
	}
	unsat, err := cq.Parse("(y) :- R0(y), y != y.")
	if err != nil {
		t.Fatal(err)
	}
	// The unsatisfiable disjunct comes first so the missing answer (C5) is
	// tried against it before the disjunct that can actually complete it.
	u := &cq.Union{Disjuncts: []*cq.Query{unsat, sat}}
	for _, q := range u.Disjuncts {
		if err := q.Validate(s); err != nil {
			t.Fatal(err)
		}
	}

	cl := New(d, crowd.NewPerfect(dg), Config{})
	rep, err := cl.CleanUnion(context.Background(), u)
	if err != nil {
		t.Fatalf("CleanUnion aborted on the unsatisfiable disjunct: %v", err)
	}
	if got, want := eval.NaiveResult(sat, d), eval.NaiveResult(sat, dg); len(got) != len(want) {
		t.Fatalf("did not converge: Q(D') has %d answers, Q(DG) has %d", len(got), len(want))
	}
	if rep.Insertions == 0 {
		t.Error("expected the missing answer to be inserted via the satisfiable disjunct")
	}
}

// TestCleanUnionGroundInsertSound is the minimized regression from the
// check harness (seed 63): a missing union answer proposed by one disjunct
// used to be inserted through another disjunct whose embedding Q|t was all
// ground atoms — Algorithm 2's unasked ground inserts then added facts
// outside the ground truth (here R0(C5,C5,C5), false in DG). The cleaner
// must route the insertion through the proposing disjunct (or confirm the
// other disjunct with the oracle first) and never apply an edit that moves
// D away from DG.
func TestCleanUnionGroundInsertSound(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R0", Attrs: []string{"a0", "a1", "a2"}},
		schema.Relation{Name: "R1", Attrs: []string{"a0"}},
	)
	dg := db.New(s)
	dg.InsertFact(db.NewFact("R1", "C5"))
	d := db.New(s) // the true answer (C5) is missing
	q0, err := cq.Parse("(y) :- R0(y, y, y).")
	if err != nil {
		t.Fatal(err)
	}
	q1, err := cq.Parse("(z) :- R1(z).")
	if err != nil {
		t.Fatal(err)
	}
	u := &cq.Union{Disjuncts: []*cq.Query{q0, q1}}

	cl := New(d, crowd.NewPerfect(dg), Config{})
	rep, err := cl.CleanUnion(context.Background(), u)
	if err != nil {
		t.Fatalf("CleanUnion: %v", err)
	}
	for _, e := range rep.Edits {
		if e.Op == db.Insert && !dg.Has(e.Fact) {
			t.Errorf("cleaner inserted %v, which is false in the ground truth", e.Fact)
		}
		if e.Op == db.Delete && dg.Has(e.Fact) {
			t.Errorf("cleaner deleted %v, which is true in the ground truth", e.Fact)
		}
	}
	if !d.Has(db.NewFact("R1", "C5")) {
		t.Error("the missing fact R1(C5) was not inserted")
	}
	if d.Has(db.NewFact("R0", "C5", "C5", "C5")) {
		t.Error("the spurious fact R0(C5,C5,C5) was inserted")
	}
}

// TestEmbedUnsatisfiableTyped: all three "t can never be an answer" shapes
// of Embed match cq.ErrUnsatisfiableAnswer, and arity mismatches do not.
func TestEmbedUnsatisfiableTyped(t *testing.T) {
	ineq, err := cq.Parse("(y) :- R0(y), y != y.")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ineq.Embed(db.Tuple{"C5"}); !errors.Is(err, cq.ErrUnsatisfiableAnswer) {
		t.Errorf("ground-inequality embed error = %v, want ErrUnsatisfiableAnswer", err)
	}
	rep, err := cq.Parse("(x, x) :- R1(x, x).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Embed(db.Tuple{"A", "B"}); !errors.Is(err, cq.ErrUnsatisfiableAnswer) {
		t.Errorf("repeated-head-variable embed error = %v, want ErrUnsatisfiableAnswer", err)
	}
	konst, err := cq.Parse("('K', x) :- R1('K', x).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := konst.Embed(db.Tuple{"Z", "B"}); !errors.Is(err, cq.ErrUnsatisfiableAnswer) {
		t.Errorf("head-constant embed error = %v, want ErrUnsatisfiableAnswer", err)
	}
	if _, err := ineq.Embed(db.Tuple{"A", "B"}); err == nil || errors.Is(err, cq.ErrUnsatisfiableAnswer) {
		t.Errorf("arity mismatch should be a distinct error, got %v", err)
	}
}
