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

// TestViewApplyFromOnEdit keeps two views current through a cleaning run by
// calling View.Apply from the cleaner's OnEdit hook: both stay exactly in
// sync with the database as QOCO repairs it.
func TestViewApplyFromOnEdit(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		d, dg := dataset.Figure1()
		vQ1 := view.New("winners", dataset.IntroQ1(), d)
		vQ2 := view.New("scorers", dataset.IntroQ2(), d)

		cl := core.New(d, crowd.NewPerfect(dg), core.Config{
			RNG: rand.New(rand.NewSource(3)),
			OnEdit: func(e db.Edit) {
				vQ1.Apply(d, e)
				vQ2.Apply(d, e)
			},
			Incremental: incremental,
		})
		if _, err := cl.Clean(context.Background(), dataset.IntroQ1()); err != nil {
			t.Fatal(err)
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
