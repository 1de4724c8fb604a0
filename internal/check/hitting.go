package check

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/hitting"
)

// GenerateSetSystem builds a seeded random set system as raw sets: up to 7
// sets of 1-4 elements over a universe of at most 8, with duplicate sets,
// singletons, and subset relations all likely. Small universes keep the
// brute-force reference (subset enumeration) exact and cheap.
func GenerateSetSystem(seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	universe := make([]string, 2+rng.Intn(7))
	for i := range universe {
		universe[i] = fmt.Sprintf("e%d", i)
	}
	sets := make([][]string, rng.Intn(8))
	for i := range sets {
		size := 1 + rng.Intn(4)
		s := make([]string, size)
		for j := range s {
			s[j] = universe[rng.Intn(len(universe))] // duplicates within a set allowed
		}
		sets[i] = s
	}
	// Occasionally duplicate a whole set verbatim.
	if len(sets) > 0 && rng.Intn(3) == 0 {
		sets = append(sets, append([]string(nil), sets[rng.Intn(len(sets))]...))
	}
	return sets
}

// CheckHittingSets cross-checks every hitting-set path on one set system
// against brute-force subset enumeration:
//
//   - Greedy returns a valid hitting set; its size is also compared with
//     the brute-force minimum, which no hitting set can undercut, so that
//     comparison sanity-checks the reference rather than Greedy
//   - UniqueMinimal agrees with brute-force enumeration of all minimal
//     hitting sets (Theorem 4.5's singleton criterion vs ground truth)
//   - MostFrequent returns a maximally frequent element
func CheckHittingSets(sets [][]string) error {
	ss := hitting.NewSetSystem(sets...)
	universe := ss.Elements()
	if len(universe) > 16 {
		return fmt.Errorf("hitting: universe %d too large for brute force", len(universe))
	}

	greedy := ss.Greedy()
	if !ss.IsHittingSet(greedy) {
		return fmt.Errorf("hitting: Greedy() = %v is not a hitting set of %v", greedy, sets)
	}
	best, minimal := bruteForceHitting(ss, universe)
	if len(greedy) < best { // only a broken reference can trip this
		return fmt.Errorf("hitting: brute-force minimum %d exceeds the hitting set Greedy() = %v for %v", best, greedy, sets)
	}
	um, unique := ss.UniqueMinimal()
	if unique != (len(minimal) == 1) {
		return fmt.Errorf("hitting: UniqueMinimal reports %v but %d minimal hitting sets exist for %v: %v",
			unique, len(minimal), sets, minimal)
	}
	if unique && len(minimal) == 1 {
		want := append([]string(nil), minimal[0]...)
		got := append([]string(nil), um...)
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("hitting: UniqueMinimal = %v, brute force unique = %v for %v", um, want, sets)
		}
	}

	if !ss.Empty() {
		freq := ss.Frequencies()
		max := 0
		for _, n := range freq {
			if n > max {
				max = n
			}
		}
		mf := ss.MostFrequent(rand.New(rand.NewSource(1)))
		if freq[mf] != max {
			return fmt.Errorf("hitting: MostFrequent = %q with frequency %d, max is %d (%v)", mf, freq[mf], max, sets)
		}
	}
	return nil
}

// bruteForceHitting enumerates every subset of the universe and returns the
// minimum hitting-set size plus the list of all minimal hitting sets.
func bruteForceHitting(ss *hitting.SetSystem, universe []string) (best int, minimal [][]string) {
	n := len(universe)
	best = -1
	for mask := 0; mask < 1<<n; mask++ {
		var h []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				h = append(h, universe[i])
			}
		}
		if !ss.IsHittingSet(h) {
			continue
		}
		if best < 0 || len(h) < best {
			best = len(h)
		}
		if ss.IsMinimalHittingSet(h) || (len(h) == 0 && ss.Empty()) {
			minimal = append(minimal, h)
		}
	}
	if best < 0 {
		best = 0 // unreachable for non-empty sets over their own universe
	}
	return best, minimal
}

// ShrinkSets greedily minimizes a failing set system: it repeatedly tries
// dropping whole sets, then individual elements, keeping any candidate on
// which the property still fails.
func ShrinkSets(sets [][]string, prop func([][]string) error) [][]string {
	fails := func(c [][]string) bool { return prop(c) != nil }
	if !fails(sets) {
		return sets
	}
	cur := append([][]string(nil), sets...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append([][]string(nil), cur[:i]...), cur[i+1:]...)
			if fails(cand) {
				cur, changed = cand, true
				i--
			}
		}
		for i := 0; i < len(cur); i++ {
			for j := 0; j < len(cur[i]); j++ {
				if len(cur[i]) == 1 {
					continue
				}
				cand := append([][]string(nil), cur...)
				row := append([]string(nil), cur[i]...)
				cand[i] = append(row[:j], row[j+1:]...)
				if fails(cand) {
					cur, changed = cand, true
					j--
				}
			}
		}
	}
	return cur
}
