package check

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/view"
)

// CheckIVMParity is the maintained-evaluation differential: it registers a
// view.Engine as the store's eval.Maintainer (exactly as the cleaner's
// incremental mode does), replays the instance's edit script, and after every
// edit requires the maintained evaluation paths to be indistinguishable from
// the naive reference:
//
//   - eval.Result on the maintained query and every union disjunct equals
//     NaiveResult, and the engine really served it (MaintainedResult ok)
//   - eval.Witnesses (not maintained: served by the cache or a cold
//     enumeration) equals the NoCache enumeration byte for byte, canonical
//     order included — the hitting-set instances built from them are then
//     identical
//   - eval.AnswerHolds and empty-seed eval.Holds agree with their cold
//     counterparts
//   - eval.ResultUnion equals the deduplicated union of per-disjunct
//     NaiveResult
//
// It then goes out of band — an edit applied to the store without telling the
// engine — and requires the engine to decline (stale lookups) while
// evaluation falls back cold and stays correct, and finally that Ensure
// resyncs the engine back into serving.
func CheckIVMParity(ins *Instance) error {
	d := ins.D.Clone()
	engine := view.NewEngine(d)
	if err := engine.Ensure(ins.Query); err != nil {
		return fmt.Errorf("ivm parity: Ensure(%s): %w", ins.Query, err)
	}
	if ins.Union != nil {
		if err := engine.EnsureUnion(ins.Union); err != nil {
			return fmt.Errorf("ivm parity: EnsureUnion: %w", err)
		}
	}
	eval.SetMaintainer(d.ID(), engine)
	defer func() {
		eval.ClearMaintainer(d.ID(), engine)
		eval.InvalidateDB(d.ID())
	}()

	if err := ivmStep(ins, d, engine, "initial"); err != nil {
		return err
	}
	for ei, e := range ins.Edits {
		changed, err := d.Apply(e)
		if err != nil {
			return fmt.Errorf("ivm parity: edit %d (%v): %w", ei, e, err)
		}
		if changed {
			engine.Apply(e)
		}
		if err := ivmStep(ins, d, engine, fmt.Sprintf("after edit %d (%v)", ei, e)); err != nil {
			return err
		}
	}

	// Out-of-band edit: the store moves, the engine is not told. Maintained
	// lookups must decline (wrong generation) and evaluation must fall back
	// to the cold path — a stale engine serving old rows would surface as a
	// divergence from NaiveResult here.
	oob := outOfBandEdit(ins, d)
	if _, err := d.Apply(oob); err != nil {
		return fmt.Errorf("ivm parity: out-of-band edit: %w", err)
	}
	if _, ok := engine.MaintainedResult(d, ins.Query); ok {
		return fmt.Errorf("ivm parity: engine served a result after an unseen edit (generation not checked)")
	}
	if got, want := eval.Result(ins.Query, d), eval.NaiveResult(ins.Query, d); !tuplesEqual(got, want) {
		return fmt.Errorf("ivm parity: cold fallback after unseen edit: Result = %s, naive = %s",
			formatTuples(got), formatTuples(want))
	}

	// Ensure is the recovery point: it resyncs a stale engine, after which
	// maintained lookups serve again and still agree.
	if err := engine.Ensure(ins.Query); err != nil {
		return fmt.Errorf("ivm parity: re-Ensure: %w", err)
	}
	if !engine.Covers(ins.Query) {
		return fmt.Errorf("ivm parity: engine still stale after Ensure resync")
	}
	return ivmStep(ins, d, engine, "after resync")
}

// ivmStep runs the full maintained-vs-naive comparison at one point of the
// edit script.
func ivmStep(ins *Instance, d *db.Database, engine *view.Engine, step string) error {
	q := ins.Query
	naive := eval.NaiveResult(q, d)

	// The engine must actually be serving — a silent permanent fallback would
	// pass every value comparison while voiding the whole IVM mode.
	rows, ok := engine.MaintainedResult(d, q)
	if !ok {
		return fmt.Errorf("ivm parity (%s): engine declined MaintainedResult while in sync", step)
	}
	if !tuplesEqual(rows, naive) {
		return fmt.Errorf("ivm parity (%s): MaintainedResult = %s, naive = %s",
			step, formatTuples(rows), formatTuples(naive))
	}
	if got := eval.Result(q, d); !tuplesEqual(got, naive) {
		return fmt.Errorf("ivm parity (%s): Result = %s, naive = %s",
			step, formatTuples(got), formatTuples(naive))
	}

	// Witness parity: the enumeration with the engine registered must be
	// byte-identical to the cold one (canonical witness-key order), for
	// present answers and for a perturbed absent probe.
	for _, t := range naive {
		got := eval.Witnesses(q, d, t)
		cold := eval.Witnesses(q, d, t, eval.NoCache())
		if gk, ck := witnessSetsKey(got), witnessSetsKey(cold); gk != ck {
			return fmt.Errorf("ivm parity (%s): Witnesses(%v) = %q, cold = %q", step, t, gk, ck)
		}
		if !eval.AnswerHolds(q, d, t) {
			return fmt.Errorf("ivm parity (%s): AnswerHolds rejects naive answer %v", step, t)
		}
		if len(t) > 0 {
			probe := append(db.Tuple(nil), t...)
			probe[0] += "\x00not-a-value"
			if eval.AnswerHolds(q, d, probe) != eval.AnswerHolds(q, d, probe, eval.NoCache()) {
				return fmt.Errorf("ivm parity (%s): AnswerHolds(%v) diverges from cold", step, probe)
			}
		}
	}

	// Empty-seed satisfiability: the cleaner's insertion-loop probe.
	if got, want := eval.Holds(q, d, nil), eval.Holds(q, d, nil, eval.NoCache()); got != want {
		return fmt.Errorf("ivm parity (%s): Holds = %v, cold = %v", step, got, want)
	}

	if ins.Union == nil {
		return nil
	}
	var want []db.Tuple
	seen := map[string]bool{}
	for _, dq := range ins.Union.Disjuncts {
		if got, naiveD := eval.Result(dq, d), eval.NaiveResult(dq, d); !tuplesEqual(got, naiveD) {
			return fmt.Errorf("ivm parity (%s): disjunct %s: Result = %s, naive = %s",
				step, dq, formatTuples(got), formatTuples(naiveD))
		}
		for _, t := range eval.NaiveResult(dq, d) {
			k := fmt.Sprintf("%q", []string(t))
			if !seen[k] {
				seen[k] = true
				want = append(want, t)
			}
		}
	}
	if got := eval.ResultUnion(ins.Union, d); !tuplesEqual(got, want) {
		return fmt.Errorf("ivm parity (%s): ResultUnion = %s, naive union = %s",
			step, formatTuples(got), formatTuples(want))
	}
	return nil
}

// outOfBandEdit picks a deterministic semantically-changing edit for the
// stale-engine leg: delete a present fact if the store has one, otherwise
// insert a fresh fact into the schema's first relation.
func outOfBandEdit(ins *Instance, d *db.Database) db.Edit {
	facts := sortedFacts(d)
	if len(facts) > 0 {
		return db.Deletion(facts[0])
	}
	name := ins.Schema.Names()[0]
	r, _ := ins.Schema.Relation(name)
	args := make([]string, r.Arity())
	for i := range args {
		args[i] = "Zoob"
	}
	return db.Insertion(db.NewFact(name, args...))
}
