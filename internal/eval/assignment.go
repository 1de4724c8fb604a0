// Package eval evaluates conjunctive queries with inequalities over database
// instances. It produces the paper's core objects (§2): valid assignments
// A(Q,D), per-answer assignments A(t,Q,D), witnesses α(body(Q)), and
// satisfiability of partial assignments. A naive reference evaluator is
// included and cross-checked against the indexed one in tests.
package eval

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/db"
)

// Assignment maps variable names to constants. A total assignment binds
// every variable of the query; a partial one may not.
type Assignment map[string]string

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Resolve returns the constant a term denotes under the assignment and
// whether it is determined (constants always are; variables only if bound).
func (a Assignment) Resolve(t cq.Term) (string, bool) {
	if !t.IsVar {
		return t.Name, true
	}
	v, ok := a[t.Name]
	return v, ok
}

// TotalFor reports whether the assignment binds every variable of q.
func (a Assignment) TotalFor(q *cq.Query) bool {
	for _, v := range q.Vars() {
		if _, ok := a[v]; !ok {
			return false
		}
	}
	return true
}

// Key returns a canonical representation used for dedup and map keys.
func (a Assignment) Key() string { return string(a.appendKey(nil)) }

// appendKey appends Key() to b. It sorts the variables in a stack array, so
// for up to 16 variables it allocates only to grow b.
func (a Assignment) appendKey(b []byte) []byte {
	var arr [16]string
	keys := arr[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, '\x1e')
		}
		b = append(b, k...)
		b = append(b, '\x1f')
		b = append(b, a[k]...)
	}
	return b
}

// String renders the assignment as {x -> a, y -> b} with sorted variables.
func (a Assignment) String() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteString(" -> ")
		b.WriteString(a[k])
	}
	b.WriteByte('}')
	return b.String()
}

// HeadTuple returns α(head(Q)): the answer tuple induced by the assignment.
// Unbound head variables yield ok = false.
func (a Assignment) HeadTuple(q *cq.Query) (db.Tuple, bool) {
	out := make(db.Tuple, len(q.Head))
	for i, t := range q.Head {
		v, ok := a.Resolve(t)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// AtomFact returns α(R(ū)) as a fact; ok = false if some argument is an
// unbound variable.
func (a Assignment) AtomFact(atom cq.Atom) (db.Fact, bool) {
	args := make(db.Tuple, len(atom.Args))
	for i, t := range atom.Args {
		v, ok := a.Resolve(t)
		if !ok {
			return db.Fact{}, false
		}
		args[i] = v
	}
	return db.Fact{Rel: atom.Rel, Args: args}, true
}

// IneqHolds evaluates α(l ≠ r). If either side is unbound the inequality is
// not yet violated and holds vacuously (it will be re-checked when bound).
func (a Assignment) IneqHolds(e cq.Ineq) bool {
	l, lok := a.Resolve(e.Left)
	r, rok := a.Resolve(e.Right)
	if !lok || !rok {
		return true
	}
	return l != r
}

// Witness returns α(body(Q)) as a deduplicated, sorted set of facts — the
// paper's witness for α. All atoms must be fully bound; callers use it only
// with total (or total-on-atoms) assignments.
func (a Assignment) Witness(q *cq.Query) []db.Fact {
	out := make([]db.Fact, 0, len(q.Atoms))
	for _, atom := range q.Atoms {
		if f, ok := a.AtomFact(atom); ok {
			out = append(out, f)
		}
	}
	return sortFacts(out)
}

// sortFacts sorts the facts in place and drops duplicates. It uses insertion
// sort: a body has a handful of atoms, and Witnesses sorts once per
// assignment, where sort.Slice's allocations would dominate.
func sortFacts(w []db.Fact) []db.Fact {
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j].Less(w[j-1]); j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
	n := 0
	for _, f := range w {
		if n == 0 || !f.Equal(w[n-1]) {
			w[n] = f
			n++
		}
	}
	return w[:n]
}

// PartialFromAnswer builds the partial assignment induced by an answer tuple
// t (the paper treats t itself as a partial assignment mapping head variables
// to t's constants). It fails if t conflicts with head constants or binds a
// repeated head variable inconsistently.
func PartialFromAnswer(q *cq.Query, t db.Tuple) (Assignment, bool) {
	if len(t) != len(q.Head) {
		return nil, false
	}
	a := make(Assignment)
	for i, h := range q.Head {
		if h.IsVar {
			if prev, ok := a[h.Name]; ok && prev != t[i] {
				return nil, false
			}
			a[h.Name] = t[i]
		} else if h.Name != t[i] {
			return nil, false
		}
	}
	return a, true
}
