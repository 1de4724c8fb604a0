// Package cq models conjunctive queries with inequalities (CQ≠), the query
// class of the paper (§2):
//
//	Ans(ū0) :- R1(ū1), ..., Rn(ūn), E1, ..., Em
//
// where each Ei is an inequality l ≠ r. It provides an AST, a Datalog-style
// text parser, subqueries (Definition 5.3), the answer-embedding Q|t used by
// the insertion algorithm (§5), and unions of CQ≠ as an extension.
//
// Lexical convention in the text syntax: an identifier starting with a
// lowercase letter is a variable; quoted strings and identifiers starting
// with an uppercase letter or digit are constants. Relation symbols follow
// the schema. Example:
//
//	(x) :- Games(d1, x, y, Final, u1), Games(d2, x, z, Final, u2), Teams(x, EU), d1 != d2.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/schema"
)

// Term is a variable or a constant.
type Term struct {
	IsVar bool
	Name  string // variable name or constant value
}

// Var builds a variable term.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Const builds a constant term.
func Const(value string) Term { return Term{Name: value} }

// String renders the term: variables by name, constants quoted when needed.
func (t Term) String() string {
	if t.IsVar || !needsQuote(t.Name) {
		return t.Name
	}
	return string(t.appendText(nil))
}

// appendText appends String's rendering of the term to b. A quoted constant
// escapes each backslash and quote with a backslash, so a value ending in
// '\' cannot escape the closing quote.
func (t Term) appendText(b []byte) []byte {
	if t.IsVar || !needsQuote(t.Name) {
		return append(b, t.Name...)
	}
	b = append(b, '\'')
	for i := 0; i < len(t.Name); i++ {
		if c := t.Name[i]; c == '\\' || c == '\'' {
			b = append(b, '\\')
		}
		b = append(b, t.Name[i])
	}
	return append(b, '\'')
}

func needsQuote(v string) bool {
	if v == "" {
		return true
	}
	c := v[0]
	if c >= 'a' && c <= 'z' { // would lex as a variable
		return true
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == ':', c == '-':
		default:
			return true
		}
	}
	// The characters are individually safe, but the lexer would still not
	// re-lex the value as one identifier: ":-" lexes as the implies token and
	// a trailing '.' as the query terminator.
	if strings.Contains(v, ":-") || strings.HasSuffix(v, ".") {
		return true
	}
	return false
}

// Atom is a relational atom R(l1, ..., lk).
type Atom struct {
	Rel  string
	Args []Term
}

// String renders the atom as Rel(t1, ..., tk).
func (a Atom) String() string { return string(a.appendText(nil)) }

// appendText appends String's rendering of the atom to b.
func (a Atom) appendText(b []byte) []byte {
	b = append(b, a.Rel...)
	b = append(b, '(')
	for i, t := range a.Args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.appendText(b)
	}
	return append(b, ')')
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Vars returns the set of variable names occurring in the atom.
func (a Atom) Vars() map[string]bool {
	out := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar {
			out[t.Name] = true
		}
	}
	return out
}

// IsGround reports whether the atom has no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Rel: a.Rel, Args: args}
}

// Ineq is an inequality l ≠ r. Per the paper, the left side is a variable and
// the right side is a variable or a constant.
type Ineq struct {
	Left  Term // must be a variable
	Right Term
}

// String renders the inequality as l != r.
func (e Ineq) String() string { return string(e.appendText(nil)) }

// appendText appends String's rendering of the inequality to b.
func (e Ineq) appendText(b []byte) []byte {
	b = e.Left.appendText(b)
	b = append(b, " != "...)
	return e.Right.appendText(b)
}

// Vars returns the set of variable names occurring in the inequality.
func (e Ineq) Vars() map[string]bool {
	out := make(map[string]bool)
	if e.Left.IsVar {
		out[e.Left.Name] = true
	}
	if e.Right.IsVar {
		out[e.Right.Name] = true
	}
	return out
}

// Query is a conjunctive query with inequalities, optionally extended with
// safe negated atoms (the §9 "negation" extension: every variable of a
// negated atom must occur in some positive atom). An answer requires all
// positive atoms to hold, all inequalities to be true, and no negated atom to
// match a database fact.
type Query struct {
	Name  string // optional head predicate name ("Ans" if empty)
	Head  []Term
	Atoms []Atom
	Ineqs []Ineq
	Negs  []Atom // negated atoms, written "not R(ū)" in the text syntax
}

// Equal reports structural equality: same name, head, atoms, inequalities
// and negated atoms, in the same order. It is the identity the parser/printer
// round-trip preserves: Parse(q.String()) is Equal to q.
func (q *Query) Equal(o *Query) bool {
	if q.Name != o.Name || len(q.Head) != len(o.Head) ||
		len(q.Atoms) != len(o.Atoms) || len(q.Ineqs) != len(o.Ineqs) || len(q.Negs) != len(o.Negs) {
		return false
	}
	for i := range q.Head {
		if q.Head[i] != o.Head[i] {
			return false
		}
	}
	for i := range q.Atoms {
		if !q.Atoms[i].Equal(o.Atoms[i]) {
			return false
		}
	}
	for i := range q.Ineqs {
		if q.Ineqs[i] != o.Ineqs[i] {
			return false
		}
	}
	for i := range q.Negs {
		if !q.Negs[i].Equal(o.Negs[i]) {
			return false
		}
	}
	return true
}

// Vars returns the sorted variable names of body(Q) — the paper's Var(Q).
func (q *Query) Vars() []string {
	set := make(map[string]bool)
	for _, a := range q.Atoms {
		for v := range a.Vars() {
			set[v] = true
		}
	}
	for _, e := range q.Ineqs {
		for v := range e.Vars() {
			set[v] = true
		}
	}
	for _, a := range q.Negs {
		for v := range a.Vars() {
			set[v] = true
		}
	}
	return sortedKeys(set)
}

// HeadVars returns the sorted variable names occurring in head(Q).
func (q *Query) HeadVars() []string {
	set := make(map[string]bool)
	for _, t := range q.Head {
		if t.IsVar {
			set[t.Name] = true
		}
	}
	return sortedKeys(set)
}

// Arity returns the head arity.
func (q *Query) Arity() int { return len(q.Head) }

// String renders the query in the parseable Datalog-style syntax.
func (q *Query) String() string { return string(q.AppendText(nil)) }

// AppendText appends String's exact bytes to b and returns the extended
// slice, leaving b's contents untouched. Cache keys are built with it in a
// caller's buffer, so a lookup renders the query without allocating.
func (q *Query) AppendText(b []byte) []byte {
	b = append(b, q.Name...)
	b = append(b, '(')
	for i, t := range q.Head {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.appendText(b)
	}
	b = append(b, ") :- "...)
	first := true
	for _, a := range q.Atoms {
		b, first = comma(b, first), false
		b = a.appendText(b)
	}
	for _, a := range q.Negs {
		b, first = comma(b, first), false
		b = append(b, "not "...)
		b = a.appendText(b)
	}
	for _, e := range q.Ineqs {
		b, first = comma(b, first), false
		b = e.appendText(b)
	}
	return append(b, '.')
}

// comma appends the ", " between two body literals, none before the first.
func comma(b []byte, first bool) []byte {
	if first {
		return b
	}
	return append(b, ", "...)
}

// Validate checks well-formedness against a schema (§2):
//   - every atom's relation exists with matching arity,
//   - every head term that is a variable occurs in some atom (safety),
//   - every inequality's left side is a variable, and each of its variables
//     occurs in some atom.
func (q *Query) Validate(s *schema.Schema) error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query has no relational atoms")
	}
	bodyVars := make(map[string]bool)
	for _, a := range q.Atoms {
		rel, ok := s.Relation(a.Rel)
		if !ok {
			return fmt.Errorf("cq: unknown relation %q", a.Rel)
		}
		if len(a.Args) != rel.Arity() {
			return fmt.Errorf("cq: atom %s has %d args, relation has arity %d", a, len(a.Args), rel.Arity())
		}
		for v := range a.Vars() {
			bodyVars[v] = true
		}
	}
	for _, t := range q.Head {
		if t.IsVar && !bodyVars[t.Name] {
			return fmt.Errorf("cq: head variable %s does not occur in any atom", t.Name)
		}
	}
	for _, e := range q.Ineqs {
		if !e.Left.IsVar {
			return fmt.Errorf("cq: inequality %s must have a variable on the left", e)
		}
		if !bodyVars[e.Left.Name] {
			return fmt.Errorf("cq: inequality variable %s does not occur in any atom", e.Left.Name)
		}
		if e.Right.IsVar && !bodyVars[e.Right.Name] {
			return fmt.Errorf("cq: inequality variable %s does not occur in any atom", e.Right.Name)
		}
	}
	for _, a := range q.Negs {
		rel, ok := s.Relation(a.Rel)
		if !ok {
			return fmt.Errorf("cq: unknown relation %q in negated atom", a.Rel)
		}
		if len(a.Args) != rel.Arity() {
			return fmt.Errorf("cq: negated atom %s has %d args, relation has arity %d", a, len(a.Args), rel.Arity())
		}
		// Safety: negation must be over variables bound by positive atoms.
		for v := range a.Vars() {
			if !bodyVars[v] {
				return fmt.Errorf("cq: unsafe negation: variable %s of not %s occurs in no positive atom", v, a)
			}
		}
	}
	return nil
}

// Union is a union of conjunctive queries with inequalities (UCQ≠), the
// extension the paper notes its results carry over to (§2). All disjuncts
// must share the same head arity.
type Union struct {
	Disjuncts []*Query
}

// NewUnion builds a union and checks arity compatibility.
func NewUnion(qs ...*Query) (*Union, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("cq: union of zero queries")
	}
	for _, q := range qs[1:] {
		if q.Arity() != qs[0].Arity() {
			return nil, fmt.Errorf("cq: union disjuncts have different arities (%d vs %d)", q.Arity(), qs[0].Arity())
		}
	}
	return &Union{Disjuncts: qs}, nil
}

// Equal reports structural equality of unions (same disjuncts, same order).
func (u *Union) Equal(o *Union) bool {
	if len(u.Disjuncts) != len(o.Disjuncts) {
		return false
	}
	for i := range u.Disjuncts {
		if !u.Disjuncts[i].Equal(o.Disjuncts[i]) {
			return false
		}
	}
	return true
}

// String renders the union with " ; " between disjuncts.
func (u *Union) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, " ; ")
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
