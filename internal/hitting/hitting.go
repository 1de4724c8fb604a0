// Package hitting implements the hitting-set machinery behind the deletion
// algorithm (§4 of the paper): set systems over string element IDs,
// the singleton rule and unique-minimal-hitting-set detection (Theorem 4.5),
// most-frequent-element selection (the greedy heuristic of Algorithm 1) and
// a classic greedy cover. Algorithm 1 never solves the NP-hard minimum
// hitting set (Theorem 4.2) exactly; tests check against brute force.
package hitting

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// MetricBnBNodes was the branch-and-bound node count of the exact solver.
//
// Deprecated: nothing records it since the exact solver was removed; it
// reads 0.
const MetricBnBNodes = "hitting.bnb.nodes"

// SetSystem is the pair (U, S) of Definition 4.3 with the universe left
// implicit (the union of the sets). Elements are string IDs; in the cleaner
// they are fact keys of witness tuples.
//
// Each element string is interned once to a dense ID, each set is held as
// its distinct IDs, and the number of sets holding each ID is kept current,
// so the queries Algorithm 1 repeats per question touch no strings. A caller
// can also build the system without a string per element occurrence: intern
// each name from a reused buffer with InternKey, and add sets of the IDs it
// returns with AddIDs. Results that list elements are in element-name order,
// and MostFrequent orders its ties the same way. A SetSystem is not safe for
// concurrent use, reads included: a read may rebuild the name order.
type SetSystem struct {
	ids   map[string]int32 // element name -> ID
	names []string         // ID -> element name
	count []int            // ID -> number of sets holding it
	order []int32          // IDs in name order; stale while shorter than names
	sets  [][]int32        // each set's distinct IDs, ascending
}

// NewSetSystem builds a set system from element-ID slices. Empty sets are
// ignored (they cannot be hit and never arise from witnesses).
func NewSetSystem(sets ...[]string) *SetSystem {
	ss := &SetSystem{}
	for _, s := range sets {
		ss.Add(s)
	}
	return ss
}

// Add appends a set (ignored if empty). It does not retain elems.
func (ss *SetSystem) Add(elems []string) {
	if len(elems) == 0 {
		return
	}
	set := make([]int32, 0, len(elems))
	for _, e := range elems {
		set = append(set, ss.intern(e))
	}
	ss.add(set)
}

// AddIDs appends the set of the given element IDs, each one returned by
// InternKey (ignored if empty). It does not retain ids.
func (ss *SetSystem) AddIDs(ids []int32) {
	if len(ids) == 0 {
		return
	}
	ss.add(slices.Clone(ids))
}

// add takes ownership of set, reduces it to its distinct IDs in ascending
// order and appends it.
func (ss *SetSystem) add(set []int32) {
	slices.Sort(set)
	set = slices.Compact(set)
	for _, id := range set {
		ss.count[id]++
	}
	ss.sets = append(ss.sets, set)
}

// InternKey returns the ID of the element named key, interning the name
// when it is new. Only a new name allocates, so key may be a buffer the
// caller reuses. IDs are dense and given in first-seen order: the n-th
// distinct name gets ID n-1, so a caller can keep what it knows about each
// element in a slice indexed by ID.
func (ss *SetSystem) InternKey(key []byte) int32 {
	if id, ok := ss.ids[string(key)]; ok {
		return id
	}
	return ss.intern(string(key))
}

// intern returns e's ID, assigning the next one when e is new.
func (ss *SetSystem) intern(e string) int32 {
	if id, ok := ss.ids[e]; ok {
		return id
	}
	if ss.ids == nil {
		ss.ids = make(map[string]int32)
	}
	id := int32(len(ss.names))
	ss.ids[e] = id
	ss.names = append(ss.names, e)
	ss.count = append(ss.count, 0)
	return id
}

// byName returns every interned ID in element-name order. The order is
// rebuilt only after new elements were interned.
func (ss *SetSystem) byName() []int32 {
	if len(ss.order) != len(ss.names) {
		ss.order = make([]int32, len(ss.names))
		for i := range ss.order {
			ss.order[i] = int32(i)
		}
		slices.SortFunc(ss.order, func(a, b int32) int { return strings.Compare(ss.names[a], ss.names[b]) })
	}
	return ss.order
}

// Len returns the number of sets.
func (ss *SetSystem) Len() int { return len(ss.sets) }

// Empty reports whether no sets remain (everything is hit).
func (ss *SetSystem) Empty() bool { return len(ss.sets) == 0 }

// Sets returns the sets as sorted slices, in insertion order.
func (ss *SetSystem) Sets() [][]string {
	out := make([][]string, len(ss.sets))
	for i, s := range ss.sets {
		names := make([]string, len(s))
		for j, id := range s {
			names[j] = ss.names[id]
		}
		sort.Strings(names)
		out[i] = names
	}
	return out
}

// Elements returns the sorted universe: every element of every set.
func (ss *SetSystem) Elements() []string {
	out := make([]string, 0, len(ss.names))
	for _, id := range ss.byName() {
		if ss.count[id] > 0 {
			out = append(out, ss.names[id])
		}
	}
	return out
}

// Clone returns an independent copy.
func (ss *SetSystem) Clone() *SetSystem {
	out := &SetSystem{
		ids:   maps.Clone(ss.ids),
		names: slices.Clone(ss.names),
		count: slices.Clone(ss.count),
		order: slices.Clone(ss.order),
		sets:  make([][]int32, len(ss.sets)),
	}
	for i, s := range ss.sets {
		out.sets[i] = slices.Clone(s)
	}
	return out
}

// Singletons returns the sorted distinct elements of the singleton sets.
func (ss *SetSystem) Singletons() []string {
	out := []string{}
	for _, s := range ss.sets {
		if len(s) == 1 {
			out = append(out, ss.names[s[0]])
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// IsHittingSet reports whether H intersects every set (Definition 4.3).
func (ss *SetSystem) IsHittingSet(h []string) bool {
	inH := make([]bool, len(ss.names))
	for _, e := range h {
		if id, ok := ss.ids[e]; ok {
			inH[id] = true
		}
	}
	for _, s := range ss.sets {
		if !slices.ContainsFunc(s, func(id int32) bool { return inH[id] }) {
			return false
		}
	}
	return true
}

// IsMinimalHittingSet reports whether H is a hitting set from which no
// element can be removed (Definition 4.3).
func (ss *SetSystem) IsMinimalHittingSet(h []string) bool {
	if !ss.IsHittingSet(h) {
		return false
	}
	for i := range h {
		reduced := make([]string, 0, len(h)-1)
		reduced = append(reduced, h[:i]...)
		reduced = append(reduced, h[i+1:]...)
		if ss.IsHittingSet(reduced) {
			return false
		}
	}
	return true
}

// UniqueMinimal implements Theorem 4.5: a unique minimal hitting set exists
// iff the elements of the singleton sets form a hitting set; in that case it
// is that element set. It returns (set, true) when unique, (nil, false)
// otherwise.
func (ss *SetSystem) UniqueMinimal() ([]string, bool) {
	m := ss.Singletons()
	if len(m) == 0 {
		if ss.Empty() {
			return nil, true // vacuously: the empty set hits everything
		}
		return nil, false
	}
	if ss.IsHittingSet(m) {
		return m, true
	}
	return nil, false
}

// Frequencies returns how many sets each element occurs in.
func (ss *SetSystem) Frequencies() map[string]int {
	out := make(map[string]int)
	for id, n := range ss.count {
		if n > 0 {
			out[ss.names[id]] = n
		}
	}
	return out
}

// MostFrequent returns the element occurring in the largest number of sets,
// breaking ties uniformly at random with rng (the paper: "QOCO will choose
// randomly between them"): one rng.Intn draw indexes the tied elements in
// name order. A nil rng breaks ties deterministically by taking the
// lexicographically smallest. It returns "" on an empty system.
func (ss *SetSystem) MostFrequent(rng *rand.Rand) string {
	best, ties := 0, 0
	for _, n := range ss.count {
		switch {
		case n > best:
			best, ties = n, 1
		case n == best:
			ties++
		}
	}
	if best == 0 {
		return "" // every live set holds an element, so no sets remain
	}
	pick := 0
	if rng != nil && ties > 1 {
		pick = rng.Intn(ties)
	}
	for _, id := range ss.byName() {
		if ss.count[id] != best {
			continue
		}
		if pick == 0 {
			return ss.names[id]
		}
		pick--
	}
	panic("hitting: element counts out of step with the name order")
}

// RemoveSetsContaining drops every set that contains e (the element was
// resolved false: all witnesses through it are destroyed).
func (ss *SetSystem) RemoveSetsContaining(e string) {
	id, ok := ss.ids[e]
	if !ok || ss.count[id] == 0 {
		return
	}
	out := ss.sets[:0]
	for _, s := range ss.sets {
		if !slices.Contains(s, id) {
			out = append(out, s)
			continue
		}
		for _, x := range s {
			ss.count[x]--
		}
	}
	ss.sets = out
}

// RemoveElement deletes e from every set (the element was verified true: it
// can no longer account for any witness). Sets that become empty are dropped;
// an emptied set means the witness consists solely of verified-true facts,
// which cannot happen for a genuinely wrong answer with a correct oracle.
func (ss *SetSystem) RemoveElement(e string) (emptied int) {
	id, ok := ss.ids[e]
	if !ok || ss.count[id] == 0 {
		return 0
	}
	out := ss.sets[:0]
	for _, s := range ss.sets {
		if i := slices.Index(s, id); i >= 0 {
			s = slices.Delete(s, i, i+1)
			if len(s) == 0 {
				emptied++
				continue
			}
		}
		out = append(out, s)
	}
	ss.sets = out
	ss.count[id] = 0
	return emptied
}

// Greedy returns a hitting set built by repeatedly taking the most frequent
// element (deterministic tie-break). Used as a non-interactive baseline and
// in tests; Algorithm 1 interleaves this choice with oracle answers instead.
func (ss *SetSystem) Greedy() []string {
	work := ss.Clone()
	var h []string
	for !work.Empty() {
		e := work.MostFrequent(nil)
		h = append(h, e)
		work.RemoveSetsContaining(e)
	}
	sort.Strings(h)
	return h
}
