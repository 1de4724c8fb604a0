package check

import (
	"fmt"

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
func CheckEvalParity(ins *Instance) error {
	q, d := ins.Query, ins.D
	if err := checkResultModes(ins, "D"); err != nil {
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
