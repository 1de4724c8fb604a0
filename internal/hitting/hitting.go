// Package hitting implements the hitting-set machinery behind the deletion
// algorithm (§4 of the paper): set systems over string element IDs,
// the singleton rule and unique-minimal-hitting-set detection (Theorem 4.5),
// most-frequent-element selection (the greedy heuristic of Algorithm 1) and
// a classic greedy cover. Algorithm 1 never solves the NP-hard minimum
// hitting set (Theorem 4.2) exactly; tests check against brute force.
package hitting

import (
	"math/rand"
	"sort"
)

// MetricBnBNodes was the branch-and-bound node count of the exact solver.
//
// Deprecated: nothing records it since the exact solver was removed; it
// reads 0.
const MetricBnBNodes = "hitting.bnb.nodes"

// SetSystem is the pair (U, S) of Definition 4.3 with the universe left
// implicit (the union of the sets). Elements are string IDs; in the cleaner
// they are fact keys of witness tuples.
type SetSystem struct {
	sets []map[string]bool
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

// Add appends a set (ignored if empty).
func (ss *SetSystem) Add(elems []string) {
	if len(elems) == 0 {
		return
	}
	m := make(map[string]bool, len(elems))
	for _, e := range elems {
		m[e] = true
	}
	ss.sets = append(ss.sets, m)
}

// Len returns the number of sets.
func (ss *SetSystem) Len() int { return len(ss.sets) }

// Empty reports whether no sets remain (everything is hit).
func (ss *SetSystem) Empty() bool { return len(ss.sets) == 0 }

// Sets returns the sets as sorted slices, in insertion order.
func (ss *SetSystem) Sets() [][]string {
	out := make([][]string, len(ss.sets))
	for i, m := range ss.sets {
		out[i] = sortedKeys(m)
	}
	return out
}

// Elements returns the sorted universe: every element of every set.
func (ss *SetSystem) Elements() []string {
	set := make(map[string]bool)
	for _, m := range ss.sets {
		for e := range m {
			set[e] = true
		}
	}
	return sortedKeys(set)
}

// Clone returns an independent copy.
func (ss *SetSystem) Clone() *SetSystem {
	out := &SetSystem{sets: make([]map[string]bool, len(ss.sets))}
	for i, m := range ss.sets {
		c := make(map[string]bool, len(m))
		for e := range m {
			c[e] = true
		}
		out.sets[i] = c
	}
	return out
}

// Singletons returns the sorted distinct elements of the singleton sets.
func (ss *SetSystem) Singletons() []string {
	set := make(map[string]bool)
	for _, m := range ss.sets {
		if len(m) == 1 {
			for e := range m {
				set[e] = true
			}
		}
	}
	return sortedKeys(set)
}

// IsHittingSet reports whether H intersects every set (Definition 4.3).
func (ss *SetSystem) IsHittingSet(h []string) bool {
	hm := make(map[string]bool, len(h))
	for _, e := range h {
		hm[e] = true
	}
	for _, m := range ss.sets {
		hit := false
		for e := range m {
			if hm[e] {
				hit = true
				break
			}
		}
		if !hit {
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
	for _, m := range ss.sets {
		for e := range m {
			out[e]++
		}
	}
	return out
}

// MostFrequent returns the element occurring in the largest number of sets,
// breaking ties uniformly at random with rng (the paper: "QOCO will choose
// randomly between them"). A nil rng breaks ties deterministically by taking
// the lexicographically smallest. It returns "" on an empty system.
func (ss *SetSystem) MostFrequent(rng *rand.Rand) string {
	freq := ss.Frequencies()
	if len(freq) == 0 {
		return ""
	}
	best := -1
	var ties []string
	for _, e := range sortedKeys(toSet(freq)) { // deterministic iteration
		n := freq[e]
		if n > best {
			best = n
			ties = ties[:0]
		}
		if n == best {
			ties = append(ties, e)
		}
	}
	if rng == nil || len(ties) == 1 {
		return ties[0]
	}
	return ties[rng.Intn(len(ties))]
}

// RemoveSetsContaining drops every set that contains e (the element was
// resolved false: all witnesses through it are destroyed).
func (ss *SetSystem) RemoveSetsContaining(e string) {
	out := ss.sets[:0]
	for _, m := range ss.sets {
		if !m[e] {
			out = append(out, m)
		}
	}
	ss.sets = out
}

// RemoveElement deletes e from every set (the element was verified true: it
// can no longer account for any witness). Sets that become empty are dropped;
// an emptied set means the witness consists solely of verified-true facts,
// which cannot happen for a genuinely wrong answer with a correct oracle.
func (ss *SetSystem) RemoveElement(e string) (emptied int) {
	out := ss.sets[:0]
	for _, m := range ss.sets {
		if m[e] {
			delete(m, e)
			if len(m) == 0 {
				emptied++
				continue
			}
		}
		out = append(out, m)
	}
	ss.sets = out
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

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func toSet(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
