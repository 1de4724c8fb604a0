// Package view implements materialized CQ≠ views with counting-based
// incremental maintenance.
//
// A View materializes the answers of a CQ≠ over a database and keeps, per
// answer, the number of valid assignments supporting it; View.Apply updates
// that support incrementally for each edit (delta evaluation) instead of
// recomputing the view. The Engine aggregates views into an eval.Maintainer
// that serves the cleaner's Result/AnswerHolds/Holds calls in place of cold
// re-evaluation.
//
// The view-monitoring workflow of the paper's introduction — "QOCO can be
// activated to monitor the views that are served to users/applications.
// Whenever an error is reported in a view, QOCO can take over to clean the
// underlying database." — is served over HTTP by internal/server, which
// evaluates a registered view when it is read. A library caller brings a View
// up to date after a cleaning run with View.Refresh. A View over a copy of
// the pre-run database stays current if the caller applies the run's
// Report.Edits to the copy in order and calls View.Apply after each.
package view

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// View is a materialized CQ≠ view: the current answer tuples plus the number
// of valid assignments supporting each.
type View struct {
	Name  string
	Query *cq.Query

	answers map[string]*answer // answer key -> answer
	head    db.Tuple           // scratch: the head tuple being counted
	key     []byte             // scratch: its key
}

// answer is one materialized answer with its support |A(t, Q, D)|. It leaves
// the view when the support drops to zero.
type answer struct {
	t db.Tuple
	n int
}

// New materializes the query over the database.
func New(name string, q *cq.Query, d db.Reader) *View {
	v := &View{Name: name, Query: q, head: make(db.Tuple, len(q.Head))}
	v.Refresh(d)
	return v
}

// Refresh recomputes the materialization from scratch in one streaming pass
// over the query's assignments.
func (v *View) Refresh(d db.Reader) {
	v.answers = make(map[string]*answer)
	var last *answer
	eval.Each(v.Query, d, nil, func(r *eval.Row) bool {
		if ans := v.answerOf(r, last); ans != nil {
			ans.n++
			last = ans
		}
		return true
	})
}

// answerOf returns the entry of the answer α(head(Q)), creating it with zero
// support if absent, or nil when the row leaves a head variable unbound.
// The head is read through the row's compiled plan. last is the answer of
// the pass's previous row, or nil: a row that repeats it skips the map, and
// no answer leaves the map during a pass, so last is always still there.
// Counting another assignment of a known answer allocates nothing.
func (v *View) answerOf(r *eval.Row, last *answer) *answer {
	if !r.Head(v.head) {
		return nil
	}
	if last != nil && last.t.Equal(v.head) {
		return last
	}
	v.key = v.head.AppendKey(v.key[:0])
	ans := v.answers[string(v.key)]
	if ans == nil {
		ans = &answer{t: v.head.Clone()}
		v.answers[string(v.key)] = ans
	}
	return ans
}

// Rows returns the materialized answers in deterministic order.
func (v *View) Rows() []db.Tuple {
	out := make([]db.Tuple, 0, len(v.answers))
	for _, ans := range v.answers {
		out = append(out, ans.t)
	}
	sortTuples(out)
	return out
}

// Len returns the number of materialized answers.
func (v *View) Len() int { return len(v.answers) }

// Has reports whether the answer is currently in the view.
func (v *View) Has(t db.Tuple) bool { return v.lookup(t) != nil }

// Support returns the number of valid assignments supporting the answer.
func (v *View) Support(t db.Tuple) int {
	if ans := v.lookup(t); ans != nil {
		return ans.n
	}
	return 0
}

// lookup returns the answer's entry, or nil. It builds the key in a stack
// buffer: concurrent readers may call it, so it cannot use v.key.
func (v *View) lookup(t db.Tuple) *answer {
	var kb [128]byte
	return v.answers[string(t.AppendKey(kb[:0]))]
}

// Apply updates the materialization for a single edit. The database must
// already reflect the edit (for insertions the fact is present; for deletions
// it is absent). It returns the answers whose membership flipped.
//
// The delta is counted over the assignments that ground an atom to the edited
// fact: those using it in a positive atom, evaluated on the state that has
// the fact, gain support on an insertion and lose it on a deletion; those
// whose negated atom it grounds, evaluated on the state that lacks the fact,
// do the opposite (an inserted fact blocks them, a deleted one unblocks
// them).
//
// Apply only reads d: whichever of the two states d is not is reconstructed
// through a db.Overlay, never by editing the store (which would bump the
// generation and, on journaled backends, append non-semantic records to the
// durable log).
func (v *View) Apply(d db.Reader, e db.Edit) (appeared, disappeared []db.Tuple) {
	with, without, sign := d, db.Overlay(d, db.Deletion(e.Fact)), 1
	if e.Op != db.Insert {
		with, without, sign = db.Overlay(d, db.Insertion(e.Fact)), d, -1
	}
	before := make(map[*answer]int) // touched answer -> support before the edit
	v.matchAtoms(with, v.Query.Atoms, e.Fact, sign, before)
	v.matchAtoms(without, v.Query.Negs, e.Fact, -sign, before)
	for ans, n := range before {
		switch {
		case n == 0 && ans.n > 0:
			appeared = append(appeared, ans.t)
		case ans.n <= 0:
			if n > 0 {
				disappeared = append(disappeared, ans.t)
			}
			delete(v.answers, ans.t.Key())
		}
	}
	sortTuples(appeared)
	sortTuples(disappeared)
	return appeared, disappeared
}

// matchAtoms adds by to the support of every valid assignment over d that
// grounds one of the atoms to f, recording each touched answer's prior
// support in before. An assignment grounding several of the atoms to f is
// enumerated once per such atom but counted only at the first of them.
func (v *View) matchAtoms(d db.Reader, atoms []cq.Atom, f db.Fact, by int, before map[*answer]int) {
	var last *answer
	for i, atom := range atoms {
		if atom.Rel != f.Rel {
			continue
		}
		seed, ok := unifyAtom(atom, f.Args)
		if !ok {
			continue
		}
		eval.Each(v.Query, d, seed, func(r *eval.Row) bool {
			for _, prev := range atoms[:i] {
				if prev.Rel == f.Rel && grounds(prev, r, f.Args) {
					return true // counted at prev
				}
			}
			ans := v.answerOf(r, last)
			if ans == nil {
				return true
			}
			last = ans
			if _, seen := before[ans]; !seen {
				before[ans] = ans.n
			}
			ans.n += by
			return true
		})
	}
}

// grounds reports whether the row maps the atom to the tuple args.
func grounds(atom cq.Atom, r *eval.Row, args db.Tuple) bool {
	if len(atom.Args) != len(args) {
		return false
	}
	for i, term := range atom.Args {
		if val, ok := r.Resolve(term); !ok || val != args[i] {
			return false
		}
	}
	return true
}

// unifyAtom binds the atom's variables against the fact, returning false on a
// constant mismatch or conflicting repeated-variable binding.
func unifyAtom(atom cq.Atom, args db.Tuple) (eval.Assignment, bool) {
	if len(atom.Args) != len(args) {
		return nil, false
	}
	seed := eval.Assignment{}
	for i, term := range atom.Args {
		if !term.IsVar {
			if term.Name != args[i] {
				return nil, false
			}
			continue
		}
		if prev, ok := seed[term.Name]; ok && prev != args[i] {
			return nil, false
		}
		seed[term.Name] = args[i]
	}
	return seed, true
}

func sortTuples(ts []db.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}
