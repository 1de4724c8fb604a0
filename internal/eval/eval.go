package eval

import (
	"slices"
	"sort"
	"strings"
	"sync"
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
	var kb [keyBufSize]byte
	var key []byte
	if !cfg.noCache {
		key = appendResultKey(kb[:0], q)
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
		if !r.Head(head) {
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
	var kb [keyBufSize]byte
	var key []byte
	if !cfg.noCache {
		key = appendUnionKey(kb[:0], u)
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
// witness key. Every call enumerates: it runs VisitWitnesses, interning each
// fact by its key and keeping the store's tuple the first time it is seen, so
// sets that share a fact share its value.
func Witnesses(q *cq.Query, d db.Reader, t db.Tuple) [][]db.Fact {
	var (
		buf   []byte
		ids   = make(map[string]int32) // fact key -> ID
		facts []db.Fact                // ID -> fact
		sets  []keyedWitness
	)
	intern := func(f db.Fact) int32 {
		buf = f.AppendKey(buf[:0])
		id, ok := ids[string(buf)]
		if !ok {
			id = int32(len(facts))
			ids[string(buf)] = id
			facts = append(facts, f)
		}
		return id
	}
	VisitWitnesses(q, d, t, intern, func(set []int32) {
		w := make([]db.Fact, len(set))
		for i, id := range set {
			w[i] = facts[id]
		}
		w = sortFacts(w)
		sets = append(sets, keyedWitness{witnessKey(w), w})
	})
	slices.SortFunc(sets, func(a, b keyedWitness) int { return strings.Compare(a.key, b.key) })
	var out [][]db.Fact
	for _, s := range sets {
		out = append(out, s.facts)
	}
	return out
}

// keyedWitness is a witness set with its witness key.
type keyedWitness struct {
	key   string
	facts []db.Fact
}

// VisitWitnesses enumerates the witness sets of answer t, one per valid
// assignment in A(t,Q,D), as sets of IDs that the caller's intern gives the
// facts. Nothing is cached: each call runs one join search seeded by t.
//
// A row's fact for an atom is the stored tuple the search joined the atom
// to, so intern is called once per distinct stored tuple of a relation, not
// once per row. It must return equal IDs for equal facts. The fact's Args is
// that stored tuple itself, not a borrowed buffer: no store rewrites a tuple
// (see db.Rel), so intern may keep the fact as given. set is called once per
// distinct witness, in enumeration order, with the witness's sorted, distinct
// IDs; a row whose IDs repeat an earlier row's is dropped. The slice is
// borrowed. Each call records one eval.witnesses observation.
func VisitWitnesses(q *cq.Query, d db.Reader, t db.Tuple, intern func(db.Fact) int32, set func(ids []int32)) {
	start := time.Now()
	seed, ok := PartialFromAnswer(q, t)
	if !ok {
		observeWitnesses(start, 0, 0)
		return
	}
	w := witnessStates.Get().(*witnessState)
	w.rel = w.rel[:0]
	for _, a := range q.Atoms {
		j := 0
		for q.Atoms[j].Rel != a.Rel {
			j++
		}
		w.rel = append(w.rel, j)
	}
	var distinct map[int32]bool // IDs interned so far, for the tuples metric
	if rec() != nil {
		distinct = make(map[int32]bool)
	}
	search(q, d, seed, func(r *Row) bool {
		w.row = w.row[:0]
		for i := range r.p.atoms {
			a := &r.p.atoms[i]
			ref := tupleRef{rel: w.rel[i]}
			if len(a.tuple) > 0 {
				ref.first = &a.tuple[0]
			}
			id, ok := w.ids[ref]
			if !ok {
				id = intern(db.Fact{Rel: a.name, Args: a.tuple})
				w.ids[ref] = id
				if distinct != nil {
					distinct[id] = true
				}
			}
			w.row = append(w.row, id)
		}
		slices.Sort(w.row)
		w.row = slices.Compact(w.row)
		if w.sets.add(w.row) {
			set(w.row)
		}
		return true
	})
	observeWitnesses(start, len(w.sets.ends), len(distinct))
	w.release()
}

// witnessState is the scratch of one VisitWitnesses call. States are pooled
// like searchers, so once their maps and arenas fit the answers they serve,
// an enumeration allocates nothing of its own.
type witnessState struct {
	rel  []int              // atom -> the first atom over the same relation
	ids  map[tupleRef]int32 // stored tuple -> the ID intern gave its fact
	sets setIndex           // the distinct witness sets so far
	row  []int32            // the current row's IDs
}

// witnessStates holds released witness states for reuse.
var witnessStates = sync.Pool{New: func() any {
	return &witnessState{ids: make(map[tupleRef]int32), sets: setIndex{byHash: make(map[uint64]int32)}}
}}

// release forgets the tuples and sets of the call and returns the state to
// the pool.
func (w *witnessState) release() {
	clear(w.ids)
	w.sets.reset()
	witnessStates.Put(w)
}

// tupleRef names a stored tuple for the length of one search: the first
// atom over its relation and the address of its first value (nil for a
// zero-arity tuple, the relation's only one). A relation stores each tuple
// once and never rewrites it, and a scan's tuples stay valid until the
// relation's next mutation, so within a search equal refs hold one fact.
type tupleRef struct {
	rel   int
	first *string
}

// setIndex deduplicates ID sets without a key per set: the sets lie back to
// back in one arena, and a set's hash leads to the latest set with that
// hash, which chains to the earlier ones.
type setIndex struct {
	byHash map[uint64]int32 // hash -> the latest set with it
	next   []int32          // set -> the previous set with its hash, or -1
	ends   []int32          // set -> the end of its IDs in ids
	ids    []int32          // every set's IDs, back to back
}

// add records the set and reports whether it is new.
func (x *setIndex) add(set []int32) bool {
	h := uint64(14695981039346656037) // FNV-1a over the IDs
	for _, id := range set {
		h = (h ^ uint64(uint32(id))) * 1099511628211
	}
	prev, ok := x.byHash[h]
	if !ok {
		prev = -1
	}
	for i := prev; i >= 0; i = x.next[i] {
		from := int32(0)
		if i > 0 {
			from = x.ends[i-1]
		}
		if slices.Equal(x.ids[from:x.ends[i]], set) {
			return false
		}
	}
	x.byHash[h] = int32(len(x.ends))
	x.next = append(x.next, prev)
	x.ids = append(x.ids, set...)
	x.ends = append(x.ends, int32(len(x.ids)))
	return true
}

// reset empties the index, keeping its storage.
func (x *setIndex) reset() {
	clear(x.byHash)
	x.next, x.ends, x.ids = x.next[:0], x.ends[:0], x.ids[:0]
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
// assignment is satisfiable (§2). A registered maintainer answers it when it
// can; otherwise the join search stops at the first valid assignment.
func Holds(q *cq.Query, d db.Reader, seed Assignment, opts ...Option) bool {
	if !resolve(opts).noCache {
		if v, ok := maintainedHolds(d, q, seed); ok {
			return v
		}
	}
	found := false
	search(q, d, seed, func(*Row) bool {
		found = true
		return false // stop at first
	})
	return found
}

// AnswerHolds reports whether tuple t ∈ Q(D). The maintainer is asked before
// the seed is built: a maintained Q(D) holds no tuple that PartialFromAnswer
// rejects, and the question then allocates nothing.
func AnswerHolds(q *cq.Query, d db.Reader, t db.Tuple, opts ...Option) bool {
	if !resolve(opts).noCache {
		if v, ok := maintainedAnswerHolds(d, q, t); ok {
			return v
		}
	}
	seed, ok := PartialFromAnswer(q, t)
	if !ok {
		return false
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
