package eval

import (
	"sort"
	"time"

	"repro/internal/cq"
	"repro/internal/db"
)

// Eval returns all valid total assignments A(Q,D) in deterministic order.
// Assignment enumerations (Eval, Best, AssignmentsFor) are never cached.
func Eval(q *cq.Query, d db.Reader) []Assignment {
	out := collect(q, d, Assignment{})
	sortAssignments(out)
	return out
}

// Result returns Q(D): the distinct answer tuples α(head(Q)) over all valid
// assignments, in deterministic (lexicographic) order. Results are memoized
// per database generation, so re-evaluating an unchanged database is an O(1)
// lookup (plus a copy of the answer spine).
func Result(q *cq.Query, d db.Reader, opts ...Option) []db.Tuple {
	if r := rec(); r != nil {
		defer r.Timer(MetricResultSeconds)()
	}
	cfg := resolve(opts)
	var key string
	if !cfg.noCache {
		key = resultKey(fingerprint(q))
		if out, ok := lookupTuples(d, key); ok {
			return out
		}
		if out, ok := maintainedResult(d, q); ok {
			storeTuples(d, d.Generation(), key, out)
			return out
		}
	}
	gen := d.Generation()
	seen := make(map[string]db.Tuple)
	head := make(db.Tuple, len(q.Head))
	var buf []byte
	search(q, d, nil, func(r *Row) bool {
		if !r.fill(r.p.head, head) {
			return true
		}
		buf = head.AppendKey(buf[:0])
		if _, ok := seen[string(buf)]; !ok {
			seen[string(buf)] = head.Clone()
		}
		return true
	})
	out := sortTuples(seen)
	if !cfg.noCache {
		storeTuples(d, gen, key, out)
	}
	return out
}

// ResultUnion returns the union of Result over the disjuncts of a UCQ.
func ResultUnion(u *cq.Union, d db.Reader, opts ...Option) []db.Tuple {
	if r := rec(); r != nil {
		defer r.Timer(MetricResultUnionSeconds)()
	}
	cfg := resolve(opts)
	var key string
	if !cfg.noCache {
		key = unionResultKey(unionFingerprint(u))
		if out, ok := lookupTuples(d, key); ok {
			return out
		}
	}
	gen := d.Generation()
	seen := make(map[string]db.Tuple)
	for _, q := range u.Disjuncts {
		for _, t := range Result(q, d, opts...) {
			seen[t.Key()] = t
		}
	}
	out := sortTuples(seen)
	if !cfg.noCache {
		storeTuples(d, gen, key, out)
	}
	return out
}

// Each streams the valid total assignments extending seed to yield, in
// enumeration order rather than the canonical order of Eval, until yield
// returns false. It consults neither the cache nor a maintainer. The row is
// borrowed and read-only: the enumeration rebinds it after yield returns, so
// yield must copy out what must outlive the call. Seed bindings of variables
// the query lacks resolve in every row.
func Each(q *cq.Query, d db.Reader, seed Assignment, yield func(*Row) bool) {
	search(q, d, seed, yield)
}

// AssignmentsFor returns A(t,Q,D): the valid assignments of Q w.r.t. D that
// yield answer t. It returns nil when t conflicts with the head shape.
func AssignmentsFor(q *cq.Query, d db.Reader, t db.Tuple) []Assignment {
	seed, ok := PartialFromAnswer(q, t)
	if !ok {
		return nil
	}
	out := collect(q, d, seed)
	sortAssignments(out)
	return out
}

// Witnesses returns the witness sets for answer t: one set of facts per valid
// assignment in A(t,Q,D), deduplicated (distinct assignments can induce the
// same witness, e.g. by permuting symmetric atoms) and sorted canonically by
// witness key, so cold and cached calls produce byte-identical output.
// Witness sets are memoized per database generation, so a repeat read at the
// same generation enumerates nothing. Algorithm 1 reads them once per wrong
// answer, before its first question. A miss enumerates A(t,Q,D) seeded by t,
// folding each assignment's witness straight from the search: the facts are
// grounded into reused tuples and keyed in a reused buffer, and only a new
// witness set is copied out.
func Witnesses(q *cq.Query, d db.Reader, t db.Tuple, opts ...Option) [][]db.Fact {
	start := time.Now()
	cfg := resolve(opts)
	var key string
	if !cfg.noCache {
		key = witnessCacheKey(fingerprint(q), t.Key())
		if out, ok := lookupWitnesses(d, key); ok {
			observeWitnesses(start, out)
			return out
		}
	}
	gen := d.Generation()
	var out [][]db.Fact
	if seed, ok := PartialFromAnswer(q, t); ok {
		out = sortWitnessSets(witnessSets(q, d, seed))
	}
	if !cfg.noCache {
		storeWitnesses(d, gen, key, out)
	}
	observeWitnesses(start, out)
	return out
}

// sortWitnessSets lists witness sets in the order of their canonical keys;
// no sets yield nil.
func sortWitnessSets(byKey map[string][]db.Fact) [][]db.Fact {
	if len(byKey) == 0 {
		return nil
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]db.Fact, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// witnessSets folds the witness sets of the assignments extending seed, keyed
// by witnessKey.
func witnessSets(q *cq.Query, d db.Reader, seed Assignment) map[string][]db.Fact {
	out := make(map[string][]db.Fact)
	n := 0
	for _, a := range q.Atoms {
		n += len(a.Args)
	}
	vals := make([]string, n)
	args := make([]db.Tuple, len(q.Atoms)) // atom i grounds into args[i]
	for i, a := range q.Atoms {
		args[i], vals = vals[:len(a.Args):len(a.Args)], vals[len(a.Args):]
	}
	w := make([]db.Fact, 0, len(q.Atoms))
	var key []byte
	search(q, d, seed, func(r *Row) bool {
		w = w[:0]
		for i := range r.p.atoms {
			if r.fill(r.p.atoms[i].args, args[i]) {
				w = append(w, db.Fact{Rel: r.p.atoms[i].name, Args: args[i]})
			}
		}
		w = sortFacts(w)
		key = appendWitnessKey(key[:0], w)
		if _, ok := out[string(key)]; !ok {
			set := make([]db.Fact, len(w))
			for i, f := range w {
				set[i] = f.Clone()
			}
			out[string(key)] = set
		}
		return true
	})
	return out
}

// WitnessSetKey returns the canonical identity of one witness set — the
// dedup and sort key Witnesses uses. Differential checks compare witness
// lists by it.
func WitnessSetKey(w []db.Fact) string { return witnessKey(w) }

// witnessKey builds the dedup key of one witness set in one pre-sized buffer
// (the sets are sorted, so concatenated fact keys are canonical).
func witnessKey(w []db.Fact) string {
	n := 0
	for _, f := range w {
		n += len(f.Rel) + len(f.Args)*8 + 2
	}
	return string(appendWitnessKey(make([]byte, 0, n), w))
}

// appendWitnessKey appends the witness key of a sorted set to b.
func appendWitnessKey(b []byte, w []db.Fact) []byte {
	for _, f := range w {
		b = f.AppendKey(b)
		b = append(b, '\x1e')
	}
	return b
}

// Holds reports whether the boolean query (or the body of q under the given
// seed) has at least one valid extension w.r.t. D — i.e. whether the partial
// assignment is satisfiable (§2). Outcomes are memoized per database
// generation and seed.
func Holds(q *cq.Query, d db.Reader, seed Assignment, opts ...Option) bool {
	cfg := resolve(opts)
	var key string
	if !cfg.noCache {
		key = holdsKey(fingerprint(q), seed.Key())
		if v, ok := lookupHolds(d, key); ok {
			return v
		}
		if v, ok := maintainedHolds(d, q, seed); ok {
			storeHolds(d, d.Generation(), key, v)
			return v
		}
	}
	gen := d.Generation()
	found := false
	search(q, d, seed, func(*Row) bool {
		found = true
		return false // stop at first
	})
	if !cfg.noCache {
		storeHolds(d, gen, key, found)
	}
	return found
}

// AnswerHolds reports whether tuple t ∈ Q(D).
func AnswerHolds(q *cq.Query, d db.Reader, t db.Tuple, opts ...Option) bool {
	seed, ok := PartialFromAnswer(q, t)
	if !ok {
		return false
	}
	if !resolve(opts).noCache {
		if v, ok := maintainedAnswerHolds(d, q, t); ok {
			return v
		}
	}
	return Holds(q, d, seed, opts...)
}

// AnswerHoldsUnion reports whether t is an answer of the union over D.
func AnswerHoldsUnion(u *cq.Union, d db.Reader, t db.Tuple, opts ...Option) bool {
	if r := rec(); r != nil {
		defer r.Timer(MetricAnswerHoldsUnionSeconds)()
	}
	for _, q := range u.Disjuncts {
		if AnswerHolds(q, d, t, opts...) {
			return true
		}
	}
	return false
}

// sortAssignments orders assignments by their canonical key. Keys are
// precomputed once per assignment — Assignment.Key sorts and concatenates the
// variable bindings, so rebuilding it inside the comparator would cost
// O(n log n) key constructions per sort.
func sortAssignments(out []Assignment) {
	if len(out) < 2 {
		return
	}
	keys := make([]string, len(out))
	for i, a := range out {
		keys[i] = a.Key()
	}
	sort.Sort(&assignmentsByKey{asgs: out, keys: keys})
}

type assignmentsByKey struct {
	asgs []Assignment
	keys []string
}

func (s *assignmentsByKey) Len() int           { return len(s.asgs) }
func (s *assignmentsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *assignmentsByKey) Swap(i, j int) {
	s.asgs[i], s.asgs[j] = s.asgs[j], s.asgs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// collect gathers all valid total assignments extending seed, one cloned
// Assignment per row. Callers sort the result.
func collect(q *cq.Query, d db.Reader, seed Assignment) []Assignment {
	var out []Assignment
	search(q, d, seed, func(r *Row) bool {
		out = append(out, r.assignment())
		return true
	})
	return out
}

// BlockingFacts returns the facts of D that ground the query's negated atoms
// under the assignment — the tuples whose presence blocks the assignment from
// being valid. Used by the cleaner to repair answers of queries with
// negation.
func BlockingFacts(q *cq.Query, d db.Reader, a Assignment) []db.Fact {
	var out []db.Fact
	for _, atom := range q.Negs {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue
		}
		if d.Has(f) {
			out = append(out, f)
		}
	}
	return out
}
