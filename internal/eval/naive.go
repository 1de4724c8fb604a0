package eval

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
)

func sortTuples(seen map[string]db.Tuple) []db.Tuple {
	out := make([]db.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// NaiveEval enumerates A(Q,D) by an unoptimized nested-loop product in atom
// order, checking constraints only at the leaves. It exists as an oracle for
// correctness tests of the indexed evaluator and for ablation benchmarks;
// production callers use Eval.
func NaiveEval(q *cq.Query, d db.Reader) []Assignment {
	var out []Assignment
	var rec func(i int, a Assignment)
	rec = func(i int, a Assignment) {
		if i == len(q.Atoms) {
			for _, e := range q.Ineqs {
				l, lok := a.Resolve(e.Left)
				r, rok := a.Resolve(e.Right)
				if !lok || !rok || l == r {
					return
				}
			}
			if !negsHold(q, d, a) {
				return
			}
			out = append(out, a.Clone())
			return
		}
		atom := q.Atoms[i]
		rel := d.Rel(atom.Rel)
		if rel == nil {
			return
		}
		for _, tuple := range rel.Tuples() {
			bound, ok := bind(a, atom, tuple)
			if !ok {
				continue
			}
			rec(i+1, a)
			rollback(a, bound)
		}
	}
	rec(0, Assignment{})
	sortAssignments(out)
	return out
}

// NaiveResult computes Q(D) via NaiveEval.
func NaiveResult(q *cq.Query, d db.Reader) []db.Tuple {
	seen := make(map[string]db.Tuple)
	for _, a := range NaiveEval(q, d) {
		if t, ok := a.HeadTuple(q); ok {
			seen[t.Key()] = t
		}
	}
	return sortTuples(seen)
}

// negsHold checks the query's negated atoms under a total assignment: none
// may resolve to a fact present in D. Unbound variables in a negated atom
// (possible only for unsafe queries) make the check vacuously true for that
// atom.
func negsHold(q *cq.Query, d db.Reader, a Assignment) bool {
	for _, atom := range q.Negs {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue
		}
		if d.Has(f) {
			return false
		}
	}
	return true
}

// bind unifies the atom with the tuple, mutating a in place. On success it
// returns the names of the variables it newly bound (to be rolled back by the
// caller after recursion); on conflict it rolls back itself and reports
// ok = false.
func bind(a Assignment, atom cq.Atom, tuple db.Tuple) (bound []string, ok bool) {
	for col, t := range atom.Args {
		if !t.IsVar {
			if t.Name != tuple[col] {
				rollback(a, bound)
				return nil, false
			}
			continue
		}
		if v, exists := a[t.Name]; exists {
			if v != tuple[col] {
				rollback(a, bound)
				return nil, false
			}
			continue
		}
		a[t.Name] = tuple[col]
		bound = append(bound, t.Name)
	}
	return bound, true
}

func rollback(a Assignment, bound []string) {
	for _, v := range bound {
		delete(a, v)
	}
}
