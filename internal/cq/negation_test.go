package cq

import (
	"testing"

	"repro/internal/db"
	"repro/internal/schema"
)

func negSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "Banned", Attrs: []string{"a"}},
	)
}

func TestParseNegatedAtom(t *testing.T) {
	q, err := Parse("(x) :- R(x, y), not Banned(x)")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Atoms) != 1 || len(q.Negs) != 1 {
		t.Fatalf("atoms = %d, negs = %d", len(q.Atoms), len(q.Negs))
	}
	if q.Negs[0].Rel != "Banned" {
		t.Errorf("neg atom = %v", q.Negs[0])
	}
	if err := q.Validate(negSchema()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNegationStringRoundTrip(t *testing.T) {
	q := MustParse("(x) :- R(x, y), not Banned(x), x != y")
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q.String() != q2.String() {
		t.Errorf("round trip changed: %s vs %s", q, q2)
	}
}

func TestUnsafeNegationRejected(t *testing.T) {
	q := MustParse("(x) :- R(x, y), not Banned(z)")
	if err := q.Validate(negSchema()); err == nil {
		t.Errorf("unsafe negation accepted")
	}
	// Unknown relation / bad arity in the negated atom.
	if err := MustParse("(x) :- R(x, y), not Nope(x)").Validate(negSchema()); err == nil {
		t.Errorf("unknown negated relation accepted")
	}
	if err := MustParse("(x) :- R(x, y), not Banned(x, y)").Validate(negSchema()); err == nil {
		t.Errorf("negated arity mismatch accepted")
	}
}

func TestNotAsVariableStillWorks(t *testing.T) {
	// "not" not followed by an atom is an ordinary (ugly) variable name.
	q, err := Parse("(x) :- R(x, not)")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Atoms[0].Args[1].IsVar || q.Atoms[0].Args[1].Name != "not" {
		t.Errorf("args = %v", q.Atoms[0].Args)
	}
	if _, err := Parse("(x) :- R(x, y), not x != y"); err == nil {
		t.Errorf("'not' before an inequality should be rejected")
	}
}

func TestNegationCloneAndEmbed(t *testing.T) {
	q := MustParse("(x) :- R(x, y), not Banned(x)")
	c := q.Negs[0].Clone()
	c.Args[0] = Const("zap")
	if q.Negs[0].Args[0].Name != "x" {
		t.Errorf("Clone aliases negated atoms")
	}
	qt, err := q.Embed(db.Tuple{"v"})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if qt.Negs[0].Args[0].IsVar || qt.Negs[0].Args[0].Name != "v" {
		t.Errorf("Embed did not substitute into negated atom: %v", qt.Negs[0])
	}
}

func TestNegationSubqueryAndVars(t *testing.T) {
	q := MustParse("(x, z) :- R(x, y), R(y, z), not Banned(y)")
	vars := q.Vars()
	if len(vars) != 3 {
		t.Errorf("Vars = %v", vars)
	}
	sub := SubqueryOf(q, []int{0, 1})
	if len(sub.Negs) != 1 {
		t.Errorf("covered negated atom dropped: %v", sub.Negs)
	}
	subLeft := SubqueryOf(q, []int{1})
	// Banned(y): y occurs in R(y, z), so the neg is covered here too.
	if len(subLeft.Negs) != 1 {
		t.Errorf("negs of single-atom subquery = %v", subLeft.Negs)
	}
	if !IsSubqueryOf(sub, q) {
		t.Errorf("subquery with negs rejected by IsSubqueryOf")
	}
	foreign := MustParse("(x) :- R(x, y), not R(y, x)")
	if IsSubqueryOf(foreign, q) {
		t.Errorf("foreign negated atom accepted")
	}
}
