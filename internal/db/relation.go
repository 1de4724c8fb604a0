package db

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Relation is an in-memory set of same-arity tuples with per-column hash
// indexes. Indexes are maintained incrementally on insert/delete and used by
// the evaluator for index-nested-loop joins.
//
// Clone is copy-on-write: a clone shares the tuple and index maps with its
// source until either side mutates, at which point the mutating side copies
// them first (see materialize). Cloning counts as a read — it may run
// concurrently with other reads and clones of the same relation (the shared
// flag is atomic for that reason); mutations must be serialized against
// reads by the caller, as everywhere in the package.
type Relation struct {
	name   string
	arity  int
	tuples map[string]Tuple            // key -> tuple
	index  []map[string]map[string]int // column -> value -> set of tuple keys (value is refcount placeholder, always 1)
	shared atomic.Bool                 // maps may be shared with a COW clone; copy before mutating
}

// NewRelation creates an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation {
	r := &Relation{
		name:   name,
		arity:  arity,
		tuples: make(map[string]Tuple),
		index:  make([]map[string]map[string]int, arity),
	}
	for i := range r.index {
		r.index[i] = make(map[string]map[string]int)
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Has reports whether the tuple is present.
func (r *Relation) Has(t Tuple) bool {
	_, ok := r.tuples[t.Key()]
	return ok
}

// Insert adds the tuple, returning true if it was not already present.
// It panics on arity mismatch: callers validate against the schema first.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("db: arity mismatch inserting %v into %s/%d", t, r.name, r.arity))
	}
	k := t.Key()
	if _, ok := r.tuples[k]; ok {
		return false
	}
	r.materialize()
	t = t.Clone()
	r.tuples[k] = t
	for col, v := range t {
		m := r.index[col][v]
		if m == nil {
			m = make(map[string]int)
			r.index[col][v] = m
		}
		m[k] = 1
	}
	return true
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
		if m := r.index[col][v]; m != nil {
			delete(m, k)
			if len(m) == 0 {
				delete(r.index[col], v)
			}
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
// every tuple. It starts from the most selective bound column's index and
// filters on the remaining bindings.
func (r *Relation) Scan(bindings []Binding) []Tuple {
	if len(bindings) == 0 {
		out := make([]Tuple, 0, len(r.tuples))
		for _, t := range r.tuples {
			out = append(out, t)
		}
		return out
	}
	drive, best := r.mostSelective(bindings)
	if drive == nil {
		return nil
	}
	out := make([]Tuple, 0, len(drive))
	for k := range drive {
		if t := r.tuples[k]; matchesExcept(t, bindings, best) {
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
		return len(drive) // the index entry holds exactly the matches
	}
	n := 0
	for k := range drive {
		if matchesExcept(r.tuples[k], bindings, best) {
			n++
		}
	}
	return n
}

// mostSelective returns the index entry of the most selective binding and
// that binding's position, or a nil entry when no tuple can match (a binding
// names an out-of-range column or a value absent from its column).
func (r *Relation) mostSelective(bindings []Binding) (map[string]int, int) {
	var drive map[string]int
	best := -1
	for i, b := range bindings {
		if b.Col < 0 || b.Col >= r.arity {
			return nil, -1
		}
		m := r.index[b.Col][b.Value]
		if m == nil {
			return nil, -1
		}
		if best == -1 || len(m) < len(drive) {
			drive, best = m, i
		}
	}
	return drive, best
}

// matchesExcept reports whether the tuple satisfies every binding but the
// one at position skip (which the index lookup already guaranteed).
func matchesExcept(t Tuple, bindings []Binding, skip int) bool {
	for i, b := range bindings {
		if i != skip && t[b.Col] != b.Value {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the relation in O(1) by sharing the
// tuple and index maps copy-on-write: whichever side mutates first copies
// them (tuples themselves are immutable and stay shared forever).
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

// materialize gives the relation exclusive ownership of its maps before a
// mutation: if they may be shared with a COW clone, it copies the tuple map
// and the per-column indexes. Tuples are immutable and stay shared. A
// relation that was never cloned mutates in place, exactly as before.
func (r *Relation) materialize() {
	if !r.shared.Load() {
		return
	}
	tuples := make(map[string]Tuple, len(r.tuples))
	for k, t := range r.tuples {
		tuples[k] = t
	}
	index := make([]map[string]map[string]int, r.arity)
	for col := range index {
		index[col] = make(map[string]map[string]int, len(r.index[col]))
		for v, set := range r.index[col] {
			ns := make(map[string]int, len(set))
			for k, c := range set {
				ns[k] = c
			}
			index[col][v] = ns
		}
	}
	r.tuples, r.index = tuples, index
	r.shared.Store(false)
}
