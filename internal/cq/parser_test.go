package cq

import (
	"strings"
	"testing"

	"repro/internal/schema"
)

// q1Text is the paper's Q1 (§1): European teams that won the World Cup at
// least twice.
const q1Text = "(x) :- Games(d1, x, y, Final, u1), Games(d2, x, z, Final, u2), Teams(x, EU), d1 != d2."

func worldCupSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "Games", Attrs: []string{"date", "winner", "runnerup", "stage", "result"}},
		schema.Relation{Name: "Teams", Attrs: []string{"name", "continent"}},
		schema.Relation{Name: "Players", Attrs: []string{"name", "team", "birthyear", "birthplace"}},
		schema.Relation{Name: "Goals", Attrs: []string{"player", "date"}},
	)
}

func TestParseQ1(t *testing.T) {
	q, err := Parse(q1Text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Head) != 1 || !q.Head[0].IsVar || q.Head[0].Name != "x" {
		t.Errorf("head = %v", q.Head)
	}
	if len(q.Atoms) != 3 {
		t.Fatalf("atoms = %d, want 3", len(q.Atoms))
	}
	if q.Atoms[0].Rel != "Games" || q.Atoms[2].Rel != "Teams" {
		t.Errorf("atom relations = %v, %v", q.Atoms[0].Rel, q.Atoms[2].Rel)
	}
	// "Final" and "EU" are constants (uppercase), d1/x/y are variables.
	if q.Atoms[0].Args[3].IsVar || q.Atoms[0].Args[3].Name != "Final" {
		t.Errorf("stage term = %+v, want constant Final", q.Atoms[0].Args[3])
	}
	if !q.Atoms[0].Args[0].IsVar {
		t.Errorf("date term should be a variable: %+v", q.Atoms[0].Args[0])
	}
	if len(q.Ineqs) != 1 || q.Ineqs[0].Left.Name != "d1" || q.Ineqs[0].Right.Name != "d2" {
		t.Errorf("ineqs = %v", q.Ineqs)
	}
	if err := q.Validate(worldCupSchema()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseVarConstConvention(t *testing.T) {
	q := MustParse("(x) :- R(x, Const, 'quoted lower', \"dq\", 13.07.14, v2)")
	args := q.Atoms[0].Args
	wantVar := []bool{true, false, false, false, false, true}
	for i, w := range wantVar {
		if args[i].IsVar != w {
			t.Errorf("arg %d (%s): IsVar = %v, want %v", i, args[i].Name, args[i].IsVar, w)
		}
	}
	if args[2].Name != "quoted lower" {
		t.Errorf("quoted constant = %q", args[2].Name)
	}
	if args[4].Name != "13.07.14" {
		t.Errorf("date constant = %q", args[4].Name)
	}
}

func TestParseNamedHeadAndUnicodeNeq(t *testing.T) {
	q, err := Parse("ans(x, y) :- R(x, y), x ≠ y")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Name != "ans" {
		t.Errorf("Name = %q, want ans", q.Name)
	}
	if len(q.Ineqs) != 1 {
		t.Errorf("ineqs = %v", q.Ineqs)
	}
}

func TestParseEmptyHead(t *testing.T) {
	q, err := Parse("() :- R(x)")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Head) != 0 {
		t.Errorf("head = %v, want empty (boolean query)", q.Head)
	}
}

func TestParseConstNeqNormalized(t *testing.T) {
	q := MustParse("(x) :- R(x, c), EU != c")
	if len(q.Ineqs) != 1 {
		t.Fatalf("ineqs = %v", q.Ineqs)
	}
	e := q.Ineqs[0]
	if !e.Left.IsVar || e.Left.Name != "c" || e.Right.IsVar || e.Right.Name != "EU" {
		t.Errorf("const != var not normalized: %v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(x)",
		"(x) :-",
		"(x) :- R(x",
		"(x) :- R(x) extra",
		"(x) :- R(x), !",
		"(x) :- 'R'(x)",
		"(x) :- R(x. y)",
		"(x) :- R(x), x != ",
		"(x) :- R(x). trailing",
		"(x : - R(x)",
		"(x) :- R(x), 'unterminated",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	inputs := []string{
		q1Text,
		"ans(x, y) :- R(x, y), S(y, Const), x != y, y != 'lower const'.",
		"() :- R(A, 13.07.14).",
		"(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, Final, u), Teams(y, EU).",
	}
	for _, in := range inputs {
		q1 := MustParse(in)
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip changed query:\n  %s\n  %s", q1, q2)
		}
	}
}

func TestVarsConsts(t *testing.T) {
	q := MustParse(q1Text)
	vars := q.Vars()
	want := []string{"d1", "d2", "u1", "u2", "x", "y", "z"}
	if strings.Join(vars, ",") != strings.Join(want, ",") {
		t.Errorf("Vars = %v, want %v", vars, want)
	}
	if hv := q.HeadVars(); len(hv) != 1 || hv[0] != "x" {
		t.Errorf("HeadVars = %v", hv)
	}
}

func TestValidateErrors(t *testing.T) {
	s := worldCupSchema()
	cases := []struct {
		name, text string
	}{
		{"unknown relation", "(x) :- Nope(x)"},
		{"arity mismatch", "(x) :- Teams(x)"},
		{"unsafe head", "(w) :- Teams(x, y)"},
		{"ineq var not in atoms", "(x) :- Teams(x, y), z != x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.text)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if err := q.Validate(s); err == nil {
				t.Errorf("Validate(%s): want error", c.text)
			}
		})
	}
	// Constant on the left of an inequality is rejected by Validate when it
	// cannot be normalized (const != const stays as-is via direct AST build).
	q := &Query{Head: []Term{Var("x")}, Atoms: []Atom{{Rel: "Teams", Args: []Term{Var("x"), Var("y")}}},
		Ineqs: []Ineq{{Left: Const("EU"), Right: Const("SA")}}}
	if err := q.Validate(s); err == nil {
		t.Errorf("Validate const-left ineq: want error")
	}
}

func TestParseUnion(t *testing.T) {
	u, err := ParseUnion("(x) :- Teams(x, EU) ; (x) :- Teams(x, SA)")
	if err != nil {
		t.Fatalf("ParseUnion: %v", err)
	}
	if len(u.Disjuncts) != 2 || u.Disjuncts[0].Arity() != 1 {
		t.Errorf("union = %v", u)
	}
	for _, q := range u.Disjuncts {
		if err := q.Validate(worldCupSchema()); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
	if _, err := ParseUnion("(x) :- Teams(x, EU) ; (x, y) :- Teams(x, y)"); err == nil {
		t.Errorf("mixed arity union: want error")
	}
	if _, err := ParseUnion(";"); err == nil {
		t.Errorf("empty union: want error")
	}
	// Semicolon inside quotes must not split.
	u2, err := ParseUnion("(x) :- Teams(x, 'a;b')")
	if err != nil || len(u2.Disjuncts) != 1 {
		t.Errorf("quoted semicolon split: %v, %v", u2, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	q := MustParse(q1Text)
	c := q.Atoms[0].Clone()
	c.Args[0] = Const("zap")
	if q.Atoms[0].Args[0].Name != "d1" {
		t.Errorf("Clone aliases original")
	}
}
