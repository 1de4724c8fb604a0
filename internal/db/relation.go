package db

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Relation is an in-memory set of same-arity tuples with one posting-list
// index per column: each value maps to the stored tuples holding it in that
// column, in insertion order (a deletion moves the posting's last tuple into
// the freed slot). Insert appends to a posting and Delete swap-removes from
// it, and the evaluator's index-nested-loop joins scan the postings
// directly: a one-binding Scan returns a posting itself.
//
// Clone is copy-on-write: a clone shares the tuple map and the postings with
// its source until either side mutates, at which point the mutating side
// copies them first (see materialize). Cloning counts as a read — it may run
// concurrently with other reads and clones of the same relation (the shared
// flag is atomic for that reason); mutations must be serialized against
// reads by the caller, as everywhere in the package.
type Relation struct {
	name   string
	arity  int
	tuples map[string]Tuple     // key -> the stored tuple
	index  []map[string][]Tuple // column -> value -> posting of stored tuples
	shared atomic.Bool          // maps and postings may be shared with a COW clone; copy before mutating
}

// NewRelation creates an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation { return newRelationSize(name, arity, 0) }

// newRelationSize creates an empty relation whose tuple map is sized for n
// tuples.
func newRelationSize(name string, arity, n int) *Relation {
	r := &Relation{
		name:   name,
		arity:  arity,
		tuples: make(map[string]Tuple, n),
		index:  make([]map[string][]Tuple, arity),
	}
	for i := range r.index {
		r.index[i] = make(map[string][]Tuple)
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Has reports whether the tuple is present. It builds the tuple's key in a
// stack buffer, so it allocates nothing for keys up to 128 bytes.
func (r *Relation) Has(t Tuple) bool {
	var buf [128]byte
	_, ok := r.tuples[string(t.AppendKey(buf[:0]))]
	return ok
}

// Insert adds the tuple, returning true if it was not already present.
// It panics on arity mismatch: callers validate against the schema first.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("db: arity mismatch inserting %v into %s/%d", t, r.name, r.arity))
	}
	if r.Has(t) {
		return false
	}
	r.add(t.Clone())
	return true
}

// add stores an absent tuple of the relation's arity, taking ownership of
// it: the caller must not modify t afterwards.
func (r *Relation) add(t Tuple) {
	r.materialize()
	r.tuples[t.Key()] = t
	for col, v := range t {
		r.index[col][v] = append(r.index[col][v], t)
	}
}

// Delete removes the tuple, returning true if it was present.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	k := t.Key()
	old, ok := r.tuples[k]
	if !ok {
		return false
	}
	r.materialize()
	delete(r.tuples, k)
	for col, v := range old {
		p := r.index[col][v]
		// Every posting holds the stored tuple itself, so the address of
		// its backing array finds it without comparing values.
		i := slices.IndexFunc(p, func(u Tuple) bool { return &u[0] == &old[0] })
		last := len(p) - 1
		p[i], p[last] = p[last], nil
		if last == 0 {
			delete(r.index[col], v)
		} else {
			r.index[col][v] = p[:last]
		}
	}
	return true
}

// Tuples returns all tuples in deterministic (lexicographic) order.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Each calls fn for every tuple in unspecified order; fn must not mutate the
// relation. It stops early if fn returns false.
func (r *Relation) Each(fn func(Tuple) bool) {
	for _, t := range r.tuples {
		if !fn(t) {
			return
		}
	}
}

// Binding is a required (column, value) pair for an index scan.
type Binding struct {
	Col   int
	Value string
}

// Scan returns the tuples matching all bindings. With no bindings it returns
// every tuple. One binding returns that value's posting itself, clipped to
// its length so that appending to the result copies it; more bindings filter
// the most selective binding's posting. The result is read-only and valid
// until the relation's next mutation.
func (r *Relation) Scan(bindings []Binding) []Tuple {
	if len(bindings) == 0 {
		out := make([]Tuple, 0, len(r.tuples))
		for _, t := range r.tuples {
			out = append(out, t)
		}
		return out
	}
	drive, best := r.mostSelective(bindings)
	if len(bindings) == 1 {
		return drive[:len(drive):len(drive)]
	}
	var out []Tuple
	for _, t := range drive {
		if matchesExcept(t, bindings, best) {
			out = append(out, t)
		}
	}
	return out
}

// MatchCount returns the number of tuples matching all bindings, counting
// them in place (used for join-order selectivity estimates at every search
// node, so it allocates nothing).
func (r *Relation) MatchCount(bindings []Binding) int {
	if len(bindings) == 0 {
		return len(r.tuples)
	}
	drive, best := r.mostSelective(bindings)
	if len(bindings) == 1 {
		return len(drive) // the posting holds exactly the matches
	}
	n := 0
	for _, t := range drive {
		if matchesExcept(t, bindings, best) {
			n++
		}
	}
	return n
}

// mostSelective returns the shortest posting among the bindings' and that
// binding's position, or a nil posting when no tuple can match (a binding
// names an out-of-range column or a value absent from its column).
func (r *Relation) mostSelective(bindings []Binding) ([]Tuple, int) {
	var drive []Tuple
	best := -1
	for i, b := range bindings {
		if b.Col < 0 || b.Col >= r.arity {
			return nil, -1
		}
		p := r.index[b.Col][b.Value]
		if p == nil {
			return nil, -1
		}
		if best == -1 || len(p) < len(drive) {
			drive, best = p, i
		}
	}
	return drive, best
}

// matchesExcept reports whether the tuple satisfies every binding but the
// one at position skip (which the posting already guaranteed).
func matchesExcept(t Tuple, bindings []Binding, skip int) bool {
	for i, b := range bindings {
		if i != skip && t[b.Col] != b.Value {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the relation in O(1) by sharing the
// tuple map and the postings copy-on-write: whichever side mutates first
// copies them (tuples themselves are immutable and stay shared forever), so
// a Scan result taken from either side outlives the other side's mutations.
func (r *Relation) Clone() *Relation {
	r.shared.Store(true)
	c := &Relation{
		name:   r.name,
		arity:  r.arity,
		tuples: r.tuples,
		index:  r.index,
	}
	c.shared.Store(true)
	return c
}

// materialize gives the relation exclusive ownership of its maps and
// postings before a mutation: if they may be shared with a COW clone, it
// copies the tuple map and every posting. Tuples are immutable and stay
// shared. A relation that was never cloned mutates in place.
func (r *Relation) materialize() {
	if !r.shared.Load() {
		return
	}
	tuples := make(map[string]Tuple, len(r.tuples))
	for k, t := range r.tuples {
		tuples[k] = t
	}
	index := make([]map[string][]Tuple, r.arity)
	for col := range index {
		index[col] = make(map[string][]Tuple, len(r.index[col]))
		for v, p := range r.index[col] {
			index[col][v] = slices.Clone(p)
		}
	}
	r.tuples, r.index = tuples, index
	r.shared.Store(false)
}
