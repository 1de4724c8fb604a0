package eval

import (
	"repro/internal/cq"
	"repro/internal/db"
)

// A plan is a query compiled for one search. Every variable becomes a slot of
// a flat frame, and every term of the head, the atoms, the negated atoms and
// the inequalities becomes a slot or a constant. Compiling allocates O(|Q|)
// and builds no map: a query has a handful of variables, so slots are found
// by a linear scan over their names.
type plan struct {
	names []string   // slot -> variable name: the query's, then seed-only ones
	head  []slotTerm // the head terms
	atoms []slotAtom // the positive atoms, in query order
	negs  []slotAtom // the negated atoms
	ineqs []slotTerm // the inequalities, as pairs ineqs[2i] ≠ ineqs[2i+1]
}

// slotTerm is a compiled term: a frame slot, or a constant when slot < 0.
type slotTerm struct {
	slot int
	val  string
}

// slotAtom is a compiled atom with the relation it reads and, for positive
// atoms, whether the current search path has joined it already.
type slotAtom struct {
	name string
	args []slotTerm
	rel  db.Rel
	done bool
}

// cell is one frame slot: a value and whether it is bound.
type cell struct {
	val string
	ok  bool
}

// Row is one valid assignment as the join search holds it: the compiled
// query's frame. A Row handed to a callback is borrowed and read-only; the
// search rebinds it once the callback returns.
type Row struct {
	p     *plan
	cells []cell
}

// Resolve returns the constant a term denotes under the row and whether it is
// determined, like Assignment.Resolve: constants always are, variables when
// the row binds them.
func (r *Row) Resolve(t cq.Term) (string, bool) {
	if !t.IsVar {
		return t.Name, true
	}
	for i, n := range r.p.names {
		if n == t.Name {
			return r.cells[i].val, r.cells[i].ok
		}
	}
	return "", false
}

// term resolves a compiled term.
func (r *Row) term(t slotTerm) (string, bool) {
	if t.slot < 0 {
		return t.val, true
	}
	c := r.cells[t.slot]
	return c.val, c.ok
}

// fill resolves the terms into dst, reporting false when one is unbound.
func (r *Row) fill(terms []slotTerm, dst db.Tuple) bool {
	for i, t := range terms {
		v, ok := r.term(t)
		if !ok {
			return false
		}
		dst[i] = v
	}
	return true
}

// assignment copies the row's bindings, seed-only variables included, into a
// new Assignment.
func (r *Row) assignment() Assignment {
	a := make(Assignment, len(r.cells))
	for i, c := range r.cells {
		if c.ok {
			a[r.p.names[i]] = c.val
		}
	}
	return a
}

// searcher is the state of one join search: the compiled query, its frame,
// and scratch space reused at every node.
type searcher struct {
	plan
	Row
	cur, best []db.Binding // index bindings of the candidate and of the chosen atom
	fresh     []freshCol   // per node, stacked: the columns the chosen atom binds
	neg       db.Tuple     // a negated atom's grounding, for the membership probe
	yield     func(*Row) bool
}

// freshCol is a column of the atom chosen at a node whose variable was
// unbound there: the first such column of a variable binds its slot, a
// repeat (check) must equal it.
type freshCol struct {
	col, slot int
	check     bool
}

// slotOf returns the slot of the variable, adding one if it is new.
func (p *plan) slotOf(name string) int {
	for i, n := range p.names {
		if n == name {
			return i
		}
	}
	p.names = append(p.names, name)
	return len(p.names) - 1
}

// compile turns terms into slot terms, appending them to buf.
func (p *plan) compile(buf []slotTerm, terms ...cq.Term) []slotTerm {
	for _, t := range terms {
		if t.IsVar {
			buf = append(buf, slotTerm{slot: p.slotOf(t.Name)})
		} else {
			buf = append(buf, slotTerm{slot: -1, val: t.Name})
		}
	}
	return buf
}

// newSearcher compiles q for a search over d extending seed. It reports false
// when no assignment can exist: a positive atom names a relation d lacks.
func newSearcher(q *cq.Query, d db.Reader, seed Assignment) (*searcher, bool) {
	nterms, maxArity, negArity := len(q.Head)+2*len(q.Ineqs), 0, 0
	for _, a := range q.Atoms {
		nterms += len(a.Args)
		maxArity = max(maxArity, len(a.Args))
	}
	for _, a := range q.Negs {
		nterms += len(a.Args)
		negArity = max(negArity, len(a.Args))
	}
	s := &searcher{}
	p := &s.plan
	p.names = make([]string, 0, nterms+len(seed))
	terms := make([]slotTerm, 0, nterms)
	atoms := make([]slotAtom, len(q.Atoms)+len(q.Negs))
	p.atoms, p.negs = atoms[:len(q.Atoms)], atoms[len(q.Atoms):]
	terms = p.compile(terms, q.Head...)
	p.head = terms
	for i, a := range q.Atoms {
		n := len(terms)
		terms = p.compile(terms, a.Args...)
		p.atoms[i] = slotAtom{name: a.Rel, args: terms[n:], rel: d.Rel(a.Rel)}
		if p.atoms[i].rel == nil {
			return nil, false
		}
	}
	for i, a := range q.Negs {
		n := len(terms)
		terms = p.compile(terms, a.Args...)
		p.negs[i] = slotAtom{name: a.Rel, args: terms[n:], rel: d.Rel(a.Rel)}
	}
	n := len(terms)
	for _, e := range q.Ineqs {
		terms = p.compile(terms, e.Left, e.Right)
	}
	p.ineqs = terms[n:]
	for name := range seed {
		p.slotOf(name)
	}
	s.Row = Row{p: p, cells: make([]cell, len(p.names))}
	for name, v := range seed {
		s.cells[p.slotOf(name)] = cell{val: v, ok: true}
	}
	bindings := make([]db.Binding, 2*maxArity)
	s.cur, s.best = bindings[:0:maxArity], bindings[maxArity:maxArity]
	s.fresh = make([]freshCol, 0, nterms)
	if negArity > 0 {
		s.neg = make(db.Tuple, negArity)
	}
	return s, true
}

// search enumerates the valid total assignments of q over d that extend
// seed, handing each to yield as a borrowed Row until yield returns false.
// It joins the atoms by index-nested loops, picking at every node the
// remaining atom with the fewest matching tuples under the current bindings
// (the first one on ties, and an empty one at once).
func search(q *cq.Query, d db.Reader, seed Assignment, yield func(*Row) bool) {
	s, ok := newSearcher(q, d, seed)
	if !ok || !s.ineqsHold() {
		return // an unknown relation, or the seed violates an inequality
	}
	s.yield = yield
	s.join(0)
}

// join extends the frame over the atoms not yet done on this path; depth
// counts the done ones. It reports false when yield stopped the search.
func (s *searcher) join(depth int) bool {
	if depth == len(s.atoms) {
		if !s.negsHold() {
			return true // blocked by a negated atom; keep enumerating
		}
		return s.yield(&s.Row)
	}
	best, bestN := -1, 0
	for i := range s.atoms {
		a := &s.atoms[i]
		if a.done {
			continue
		}
		s.cur = s.bindings(a, s.cur[:0])
		n := a.rel.MatchCount(s.cur)
		if best == -1 || n < bestN {
			best, bestN = i, n
			s.cur, s.best = s.best, s.cur
		}
		if n == 0 {
			return true // an atom no tuple matches: the branch is empty
		}
	}
	a := &s.atoms[best]
	tuples := a.rel.Scan(s.best)

	// The index bindings cover the atom's constants and bound variables, so
	// a scanned tuple only needs its unbound columns: bind the first column
	// of each variable, check its repeats.
	base := len(s.fresh)
	for col, t := range a.args {
		if t.slot < 0 || s.cells[t.slot].ok {
			continue
		}
		repeat := false
		for _, f := range s.fresh[base:] {
			repeat = repeat || f.slot == t.slot
		}
		s.fresh = append(s.fresh, freshCol{col: col, slot: t.slot, check: repeat})
	}
	fresh := s.fresh[base:]
	for _, f := range fresh {
		s.cells[f.slot].ok = true
	}
	a.done = true
	more := true
tuples:
	for _, tuple := range tuples {
		for _, f := range fresh {
			if !f.check {
				s.cells[f.slot].val = tuple[f.col]
			} else if tuple[f.col] != s.cells[f.slot].val {
				continue tuples
			}
		}
		if s.ineqsHold() && !s.join(depth+1) {
			more = false
			break
		}
	}
	a.done = false
	for _, f := range fresh {
		s.cells[f.slot] = cell{}
	}
	s.fresh = s.fresh[:base]
	return more
}

// bindings appends the index bindings the atom imposes under the frame: one
// per constant or bound variable.
func (s *searcher) bindings(a *slotAtom, out []db.Binding) []db.Binding {
	for col, t := range a.args {
		if v, ok := s.term(t); ok {
			out = append(out, db.Binding{Col: col, Value: v})
		}
	}
	return out
}

// ineqsHold reports whether no inequality is violated; one with an unbound
// side holds for now and is checked again once that side is bound.
func (s *searcher) ineqsHold() bool {
	for i := 0; i < len(s.ineqs); i += 2 {
		l, lok := s.term(s.ineqs[i])
		r, rok := s.term(s.ineqs[i+1])
		if lok && rok && l == r {
			return false
		}
	}
	return true
}

// negsHold checks the negated atoms under a total assignment: none may ground
// to a fact of D. A negated atom with an unbound variable (possible only in
// unsafe queries) holds vacuously.
func (s *searcher) negsHold() bool {
	for i := range s.negs {
		a := &s.negs[i]
		t := s.neg[:len(a.args)]
		if a.rel == nil || !s.fill(a.args, t) {
			continue
		}
		if a.rel.Has(t) {
			return false
		}
	}
	return true
}
