package view_test

// External test package: these tests drive view maintenance through
// core.Cleaner, which itself imports view (the IVM engine), so keeping them
// in package view would create an import cycle.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/view"
)

func rowsKeyExt(ts []db.Tuple) string {
	out := ""
	for _, t := range ts {
		out += t.Key() + ";"
	}
	return out
}

// TestViewApplyFromOnEdit keeps two views current through a cleaning run's
// edits: it replays Report.Edits in order on a copy of the dirty database,
// calling View.Apply on both views after each edit, and requires both views
// to end exactly equal to their queries over the repaired database.
func TestViewApplyFromOnEdit(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		d, dg := dataset.Figure1()
		replay := d.Clone()
		vQ1 := view.New("winners", dataset.IntroQ1(), replay)
		vQ2 := view.New("scorers", dataset.IntroQ2(), replay)

		cl := core.New(d, crowd.NewPerfect(dg), core.Config{
			RNG:         rand.New(rand.NewSource(3)),
			Incremental: incremental,
		})
		rep, err := cl.Clean(context.Background(), dataset.IntroQ1())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Edits) == 0 {
			t.Fatalf("incremental=%v: the run made no edits to replay", incremental)
		}
		for i, e := range rep.Edits {
			changed, err := replay.Apply(e)
			if err != nil || !changed {
				t.Fatalf("incremental=%v: replaying edit %d (%v): changed=%v err=%v",
					incremental, i, e, changed, err)
			}
			vQ1.Apply(replay, e)
			vQ2.Apply(replay, e)
		}

		// winners view must now match Q1 over the repaired database (= over DG).
		if rowsKeyExt(vQ1.Rows()) != rowsKeyExt(eval.Result(dataset.IntroQ1(), d)) {
			t.Errorf("incremental=%v: winners view stale: %v vs %v",
				incremental, vQ1.Rows(), eval.Result(dataset.IntroQ1(), d))
		}
		// The scorers view was maintained through the same edits even though it
		// was not the query being cleaned.
		if rowsKeyExt(vQ2.Rows()) != rowsKeyExt(eval.Result(dataset.IntroQ2(), d)) {
			t.Errorf("incremental=%v: scorers view stale: %v vs %v",
				incremental, vQ2.Rows(), eval.Result(dataset.IntroQ2(), d))
		}
	}
}

// TestCleanerIncrementalMatchesCold runs the same cleaning instance with and
// without maintained evaluation and requires identical reports and final
// databases — the cleaner-level byte-identity guarantee of the IVM mode.
func TestCleanerIncrementalMatchesCold(t *testing.T) {
	queries := []string{"IntroQ1", "IntroQ2"}
	for _, name := range queries {
		run := func(incremental bool) (*core.Report, string) {
			d, dg := dataset.Figure1()
			q := dataset.IntroQ1()
			if name == "IntroQ2" {
				q = dataset.IntroQ2()
			}
			cl := core.New(d, crowd.NewPerfect(dg), core.Config{
				RNG:         rand.New(rand.NewSource(7)),
				Incremental: incremental,
			})
			rep, err := cl.Clean(context.Background(), q)
			if err != nil {
				t.Fatalf("%s incremental=%v: %v", name, incremental, err)
			}
			return rep, rowsKeyExt(eval.Result(q, d, eval.NoCache()))
		}
		cold, coldRows := run(false)
		ivm, ivmRows := run(true)
		if coldRows != ivmRows {
			t.Errorf("%s: final results differ: cold %q vs ivm %q", name, coldRows, ivmRows)
		}
		if cold.Crowd.Total() != ivm.Crowd.Total() {
			t.Errorf("%s: question counts differ: cold %d vs ivm %d",
				name, cold.Crowd.Total(), ivm.Crowd.Total())
		}
		if len(cold.Edits) != len(ivm.Edits) {
			t.Errorf("%s: edit counts differ: cold %d vs ivm %d",
				name, len(cold.Edits), len(ivm.Edits))
		}
		for i := range cold.Edits {
			if i < len(ivm.Edits) && cold.Edits[i].String() != ivm.Edits[i].String() {
				t.Errorf("%s: edit %d differs: %v vs %v", name, i, cold.Edits[i], ivm.Edits[i])
			}
		}
	}
}
