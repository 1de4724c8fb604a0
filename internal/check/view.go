package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/view"
)

// CheckViewParity replays the instance's edit script through incrementally
// maintained views and compares, after every edit, against references
// computed from scratch over the same store:
//
//   - flat (support-counting) views, one per distinct query among
//     ins.Query and the union's disjuncts, each kept current by View.Apply —
//     rows and per-answer support counts must match a fresh view.New
//   - the same queries maintained by a view.Engine registered as the store's
//     eval.Maintainer — eval.Witnesses of every answer and of an absent
//     probe, read twice (the second read is a cache hit), must be
//     byte-identical to the cold eval.Witnesses(..., eval.NoCache()) and to
//     the witness sets derived from eval.NaiveEval, so witnesses exist for
//     exactly the answers of NaiveResult
//
// Negated atoms are covered by the generator (a third of queries carry one),
// which is exactly where delta evaluation is easiest to get wrong: an
// insertion can delete answers and a deletion can create them.
func CheckViewParity(ins *Instance) error {
	d := ins.D.Clone()
	queries := distinctQueries(ins)

	flat := make([]*view.View, len(queries))
	engine := view.NewEngine(d)
	for i, q := range queries {
		if err := engine.Ensure(q); err != nil {
			return fmt.Errorf("view parity: Ensure(%s): %w", q, err)
		}
		flat[i] = view.New(fmt.Sprintf("v%d", i), q, d)
	}
	eval.SetMaintainer(d.ID(), engine)
	defer func() {
		eval.ClearMaintainer(d.ID(), engine)
		eval.InvalidateDB(d.ID())
	}()

	check := func(step string) error {
		for i, q := range queries {
			if err := viewsAgree(step, q, flat[i], view.New("ref", q, d)); err != nil {
				return err
			}
			if err := witnessesAgree(step, q, d); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check("initial"); err != nil {
		return err
	}

	for ei, e := range ins.Edits {
		// A no-op edit (inserting a present fact, deleting an absent one) must
		// not be propagated into the views or the engine.
		changed, err := d.Apply(e)
		if err != nil {
			return fmt.Errorf("view parity: edit %d (%v): %w", ei, e, err)
		}
		if changed {
			for _, v := range flat {
				v.Apply(d, e)
			}
			engine.Apply(e)
		}
		if err := check(fmt.Sprintf("after edit %d (%v)", ei, e)); err != nil {
			return err
		}
	}
	return nil
}

// distinctQueries collects ins.Query plus the union's disjuncts, deduplicated
// by their canonical rendering (the same fingerprint the IVM engine keys on).
func distinctQueries(ins *Instance) []*cq.Query {
	var out []*cq.Query
	seen := map[string]bool{}
	add := func(q *cq.Query) {
		if q == nil || seen[q.String()] {
			return
		}
		seen[q.String()] = true
		out = append(out, q)
	}
	add(ins.Query)
	if ins.Union != nil {
		for _, q := range ins.Union.Disjuncts {
			add(q)
		}
	}
	return out
}

// viewsAgree compares an incrementally maintained view against a freshly
// refreshed reference: rows and support counts.
func viewsAgree(step string, q *cq.Query, got, ref *view.View) error {
	if gk, rk := rowsKey(got.Rows()), rowsKey(ref.Rows()); gk != rk {
		return fmt.Errorf("view parity (%s, %s): incremental rows %q, refreshed %q", step, q, gk, rk)
	}
	for _, t := range ref.Rows() {
		if gs, rs := got.Support(t), ref.Support(t); gs != rs {
			return fmt.Errorf("view parity (%s, %s): support(%v) = %d, refreshed %d", step, q, t, gs, rs)
		}
	}
	return nil
}

// witnessesAgree checks eval.Witnesses on a store with a registered engine:
// for every answer of NaiveResult and one absent probe, the first (cold) and
// second (cached) read and the NoCache read must all equal the witness sets
// derived from NaiveEval.
func witnessesAgree(step string, q *cq.Query, d db.Reader) error {
	want := naiveWitnessKeys(q, d)
	naive := eval.NaiveResult(q, d)
	if len(want) != len(naive) {
		return fmt.Errorf("view parity (%s, %s): naive witnesses for %d answers, NaiveResult has %d",
			step, q, len(want), len(naive))
	}
	probes := naive
	if len(q.Head) > 0 {
		probe := make(db.Tuple, len(q.Head))
		for i := range probe {
			probe[i] = "\x00not-a-value"
		}
		probes = append(append([]db.Tuple(nil), naive...), probe)
	}
	for _, t := range probes {
		w := want[t.Key()]
		for _, read := range []struct {
			name string
			opts []eval.Option
		}{{"first", nil}, {"cached", nil}, {"cold", []eval.Option{eval.NoCache()}}} {
			if got := witnessSetsKey(eval.Witnesses(q, d, t, read.opts...)); got != w {
				return fmt.Errorf("view parity (%s, %s): %s Witnesses(%v) = %q, naive %q", step, q, read.name, t, got, w)
			}
		}
	}
	return nil
}

// naiveWitnessKeys derives, per answer key, the canonical witness list (as
// witnessSetsKey renders it) from the assignments of eval.NaiveEval.
func naiveWitnessKeys(q *cq.Query, d db.Reader) map[string]string {
	byAnswer := map[string]map[string]bool{}
	for _, a := range eval.NaiveEval(q, d) {
		t, ok := a.HeadTuple(q)
		if !ok {
			continue
		}
		if byAnswer[t.Key()] == nil {
			byAnswer[t.Key()] = map[string]bool{}
		}
		byAnswer[t.Key()][eval.WitnessSetKey(a.Witness(q))] = true
	}
	out := make(map[string]string, len(byAnswer))
	for k, sets := range byAnswer {
		keys := make([]string, 0, len(sets))
		for wk := range sets {
			keys = append(keys, wk)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, wk := range keys {
			b.WriteString(wk)
			b.WriteByte('|')
		}
		out[k] = b.String()
	}
	return out
}

// rowsKey canonicalizes a sorted row list for exact (order-included)
// comparison.
func rowsKey(ts []db.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.Key())
		b.WriteByte(';')
	}
	return b.String()
}

// witnessSetsKey canonicalizes a witness-set list, preserving order: the
// maintained and cold paths promise the same canonical (witness-key) order,
// so parity here is byte-identity, not set equality.
func witnessSetsKey(sets [][]db.Fact) string {
	var b strings.Builder
	for _, w := range sets {
		b.WriteString(eval.WitnessSetKey(w))
		b.WriteByte('|')
	}
	return b.String()
}
