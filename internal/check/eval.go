package check

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// CheckEvalParity replays the instance's query through every optimized
// evaluator configuration and compares each against the naive reference:
//
//   - uncached (eval.NoCache) vs NaiveResult
//   - cold cache, then warm cache (second call served from the
//     generation-stamped cache) vs NaiveResult
//   - the same sweep again after applying the instance's edit script to a
//     clone, which must invalidate the cache (generation bump) — a stale
//     cache would reproduce the pre-edit result
//   - ResultUnion vs the deduplicated union of per-disjunct NaiveResult
//   - AnswerHolds membership parity against the naive result set
//   - every witness of every answer is a subset of D
//   - seeded enumeration on D and on a db.Overlay of it: for every answer
//     and a perturbed probe, Witnesses (eval.NoCache) and AssignmentsFor
//     equal NaiveEval filtered by the answer; for random partial seeds,
//     eval.Best with no bound equals NaiveEval filtered by the seed, and
//     with k = 1 that set's key-minimum (see checkEnumeration)
func CheckEvalParity(ins *Instance) error {
	q, d := ins.Query, ins.D
	if err := checkResultModes(ins, "D"); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(ins.Seed))
	if err := checkEnumeration(q, d, "D", rng); err != nil {
		return err
	}
	overlay := db.Reader(d)
	if len(ins.Edits) > 0 {
		overlay = db.Overlay(d, ins.Edits[0])
	} else if facts := d.Facts(); len(facts) > 0 {
		overlay = db.Overlay(d, db.Deletion(facts[0]))
	}
	if err := checkEnumeration(q, overlay, "overlay", rng); err != nil {
		return err
	}

	// Edited clone: the cache entry for d was just warmed; a clone shares
	// nothing, and editing the original must invalidate its entry.
	edited := d.Clone()
	if _, err := edited.ApplyAll(ins.Edits); err != nil {
		return fmt.Errorf("apply edits: %w", err)
	}
	naiveEdited := eval.NaiveResult(q, edited)
	if got := eval.Result(q, edited); !tuplesEqual(got, naiveEdited) {
		return fmt.Errorf("eval parity: Result on edited clone = %s, naive = %s",
			formatTuples(got), formatTuples(naiveEdited))
	}
	// Edit the original in place (after its cache entry is warm) and
	// re-compare: this is the stale-cache trap.
	mutated := d.Clone()
	eval.Result(q, mutated) // warm the cache for mutated's ID
	if _, err := mutated.ApplyAll(ins.Edits); err != nil {
		return fmt.Errorf("apply edits in place: %w", err)
	}
	naiveMut := eval.NaiveResult(q, mutated)
	if got := eval.Result(q, mutated); !tuplesEqual(got, naiveMut) {
		return fmt.Errorf("eval parity: stale cache after in-place edits: Result = %s, naive = %s",
			formatTuples(got), formatTuples(naiveMut))
	}

	// Union parity: ResultUnion vs deduplicated union of naive results.
	if ins.Union == nil {
		return nil
	}
	var want []db.Tuple
	seen := map[string]bool{}
	for _, dq := range ins.Union.Disjuncts {
		for _, t := range eval.NaiveResult(dq, d) {
			k := fmt.Sprintf("%q", []string(t))
			if !seen[k] {
				seen[k] = true
				want = append(want, t)
			}
		}
	}
	if got := eval.ResultUnion(ins.Union, d); !tuplesEqual(got, want) {
		return fmt.Errorf("eval parity: ResultUnion = %s, naive union = %s",
			formatTuples(got), formatTuples(want))
	}
	return nil
}

// checkResultModes compares all Result configurations against NaiveResult
// on ins.D and checks AnswerHolds/Witnesses consistency.
func checkResultModes(ins *Instance, label string) error {
	q, d := ins.Query, ins.D
	naive := eval.NaiveResult(q, d)
	modes := []struct {
		name string
		opts []eval.Option
	}{
		{"nocache", []eval.Option{eval.NoCache()}},
		{"cold-cache", nil},
		{"warm-cache", nil}, // second uncached-option call hits the cache
	}
	for _, m := range modes {
		if got := eval.Result(q, d, m.opts...); !tuplesEqual(got, naive) {
			return fmt.Errorf("eval parity (%s, %s): Result = %s, naive = %s",
				label, m.name, formatTuples(got), formatTuples(naive))
		}
	}
	// Membership parity: every naive answer holds; a perturbed non-answer
	// must not.
	inNaive := map[string]bool{}
	for _, t := range naive {
		inNaive[fmt.Sprintf("%q", []string(t))] = true
	}
	for _, t := range naive {
		if !eval.AnswerHolds(q, d, t) {
			return fmt.Errorf("eval parity (%s): AnswerHolds rejects naive answer %v", label, t)
		}
		if len(t) > 0 {
			probe := append(db.Tuple(nil), t...)
			probe[0] = probe[0] + "\x00not-a-value"
			if eval.AnswerHolds(q, d, probe) != inNaive[fmt.Sprintf("%q", []string(probe))] {
				return fmt.Errorf("eval parity (%s): AnswerHolds accepts non-answer %v", label, probe)
			}
		}
	}
	// Witness soundness: witness facts are facts of D.
	for _, t := range naive {
		for _, w := range eval.Witnesses(q, d, t) {
			for _, f := range w {
				if !d.Has(f) {
					return fmt.Errorf("eval parity (%s): witness fact %v for %v not in D", label, f, t)
				}
			}
		}
	}
	return nil
}

// checkEnumeration compares the seeded enumerations of the join search with
// NaiveEval filtered to the same seed:
//
//   - for every naive answer and one perturbed non-answer, Witnesses (cold)
//     and AssignmentsFor;
//   - Best with no bound, and Best with k = 1 against the key-minimum, for
//     random partial seeds drawn from naive assignments, plus three edge
//     seeds: a binding of a variable the query lacks (it must appear in
//     every extension), a seed violating an inequality, and a seed
//     grounding an atom to a fact absent from d.
func checkEnumeration(q *cq.Query, d db.Reader, label string, rng *rand.Rand) error {
	all := eval.NaiveEval(q, d)
	witnesses := naiveWitnessKeys(q, d)
	answers := eval.NaiveResult(q, d)
	probes := append([]db.Tuple(nil), answers...)
	if len(answers) > 0 && len(answers[0]) > 0 {
		probe := append(db.Tuple(nil), answers[0]...)
		probe[0] += "\x00not-a-value"
		probes = append(probes, probe)
	}
	for _, t := range probes {
		if got, want := witnessSetsKey(eval.Witnesses(q, d, t, eval.NoCache())), witnesses[t.Key()]; got != want {
			return fmt.Errorf("eval parity (%s): Witnesses(%v, NoCache) = %q, naive %q", label, t, got, want)
		}
		seed, ok := eval.PartialFromAnswer(q, t)
		if !ok {
			continue
		}
		if got, want := assignmentsKey(eval.AssignmentsFor(q, d, t)), assignmentsKey(filterAssignments(all, seed)); got != want {
			return fmt.Errorf("eval parity (%s): AssignmentsFor(%v) = %s, naive %s", label, t, got, want)
		}
	}
	for _, seed := range enumerationSeeds(q, all, rng) {
		naive := filterAssignments(all, seed)
		if got, want := assignmentsKey(eval.Best(q, d, seed, 0)), assignmentsKey(naive); got != want {
			return fmt.Errorf("eval parity (%s): Best(%v, unbounded) = %s, naive %s", label, seed, got, want)
		}
		if got, want := assignmentsKey(eval.Best(q, d, seed, 1)), assignmentsKey(keyMin(naive)); got != want {
			return fmt.Errorf("eval parity (%s): Best(%v, k=1) = %s, naive key-minimum %s", label, seed, got, want)
		}
	}
	return nil
}

// keyMin returns the assignment with the least Assignment.Key, or none.
func keyMin(as []eval.Assignment) []eval.Assignment {
	if len(as) == 0 {
		return nil
	}
	least := as[0]
	for _, a := range as[1:] {
		if a.Key() < least.Key() {
			least = a
		}
	}
	return []eval.Assignment{least}
}

// enumerationSeeds draws partial seeds for checkEnumeration: restrictions of
// random naive assignments (or fresh values when there are none) to random
// variable subsets, then the three edge seeds it lists.
func enumerationSeeds(q *cq.Query, all []eval.Assignment, rng *rand.Rand) []eval.Assignment {
	vars := q.Vars()
	pick := func() eval.Assignment {
		seed := eval.Assignment{}
		var from eval.Assignment
		if len(all) > 0 {
			from = all[rng.Intn(len(all))]
		}
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				if val, ok := from[v]; ok {
					seed[v] = val
				} else {
					seed[v] = fmt.Sprintf("v%d", rng.Intn(3))
				}
			}
		}
		return seed
	}
	var seeds []eval.Assignment
	for i := 0; i < 4; i++ {
		seeds = append(seeds, pick())
	}
	absent := pick()
	absent["\x00not-a-variable"] = "kept"
	seeds = append(seeds, absent)
	for _, e := range q.Ineqs {
		if !e.Left.IsVar {
			continue
		}
		violate := pick()
		val := "same"
		if !e.Right.IsVar {
			val = e.Right.Name
		} else {
			violate[e.Right.Name] = val
		}
		violate[e.Left.Name] = val
		seeds = append(seeds, violate)
		break
	}
	if len(q.Atoms) > 0 {
		ground := pick()
		atom := q.Atoms[rng.Intn(len(q.Atoms))]
		for _, t := range atom.Args {
			if t.IsVar {
				ground[t.Name] = "\x00absent"
			}
		}
		seeds = append(seeds, ground)
	}
	return seeds
}

// filterAssignments returns the assignments agreeing with every binding of
// seed on the query's variables, extended by the seed's bindings of other
// variables — what an enumeration seeded by seed must yield.
func filterAssignments(all []eval.Assignment, seed eval.Assignment) []eval.Assignment {
	var out []eval.Assignment
next:
	for _, a := range all {
		ext := a.Clone()
		for v, val := range seed {
			if got, ok := a[v]; ok && got != val {
				continue next
			}
			ext[v] = val
		}
		out = append(out, ext)
	}
	return out
}

// assignmentsKey renders assignments as a sorted list of canonical keys.
func assignmentsKey(as []eval.Assignment) string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return fmt.Sprintf("%q", keys)
}
