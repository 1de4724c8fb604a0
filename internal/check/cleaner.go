package check

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/eval"
)

// CheckCleaner runs the full cleaning loop against a perfect oracle backed
// by the instance's ground truth and verifies the paper's contract by
// brute-force oracle simulation:
//
//   - the run converges: NaiveResult(Q, D') = NaiveResult(Q, DG) afterwards
//   - every deletion removed a fact absent from DG and every insertion
//     added a fact present in DG (Proposition 3.3: each edit moves D
//     toward DG), so the dirty/ground-truth distance never increases
//   - the number of database-changing edits is bounded by the initial
//     distance |D Δ DG|
//
// The same is asserted for CleanUnion over the instance's union.
func CheckCleaner(ins *Instance) error {
	if err := checkCleanRun(ins, false); err != nil {
		return err
	}
	return checkCleanRun(ins, true)
}

func checkCleanRun(ins *Instance, union bool) error {
	label := "Clean"
	if union {
		label = "CleanUnion"
	}
	d := ins.D.Clone()
	dist := db.Distance(d, ins.DG)
	cl := core.New(d, crowd.NewPerfect(ins.DG), core.Config{
		RNG: rand.New(rand.NewSource(ins.Seed)),
	})
	var rep *core.Report
	var err error
	if union {
		rep, err = cl.CleanUnion(context.Background(), ins.Union)
	} else {
		rep, err = cl.Clean(context.Background(), ins.Query)
	}
	if err != nil {
		return fmt.Errorf("cleaner (%s): %w\n%s", label, err, ins.Repro())
	}

	// Convergence: the cleaned result matches the ground-truth result,
	// checked with the naive reference evaluator on both sides. For unions
	// the contract is union-level equality — individual disjuncts may
	// legitimately differ as long as the union of their results agrees.
	if union {
		got := naiveUnion(ins.Union, d)
		want := naiveUnion(ins.Union, ins.DG)
		if !tuplesEqual(got, want) {
			return fmt.Errorf("cleaner (%s): U(D') = %s but U(DG) = %s",
				label, formatTuples(got), formatTuples(want))
		}
	} else {
		got := eval.NaiveResult(ins.Query, d)
		want := eval.NaiveResult(ins.Query, ins.DG)
		if !tuplesEqual(got, want) {
			return fmt.Errorf("cleaner (%s): Q(D') = %s but Q(DG) = %s",
				label, formatTuples(got), formatTuples(want))
		}
	}

	// Edit sanity: with a perfect oracle, edits only move D toward DG.
	changing := 0
	for _, e := range rep.Edits {
		switch e.Op {
		case db.Insert:
			if !ins.DG.Has(e.Fact) {
				return fmt.Errorf("cleaner (%s): inserted fact %v is not in the ground truth", label, e.Fact)
			}
		case db.Delete:
			if ins.DG.Has(e.Fact) {
				return fmt.Errorf("cleaner (%s): deleted fact %v is in the ground truth", label, e.Fact)
			}
		}
		changing++
	}
	if changing > dist {
		return fmt.Errorf("cleaner (%s): %d edits applied but initial distance |D Δ DG| was %d",
			label, changing, dist)
	}
	if rep.Degraded {
		return fmt.Errorf("cleaner (%s): degraded run with a perfect oracle", label)
	}
	return nil
}

// naiveUnion evaluates a union with the naive reference: the deduplicated
// union of per-disjunct NaiveResult.
func naiveUnion(u *cq.Union, d *db.Database) []db.Tuple {
	var out []db.Tuple
	seen := map[string]bool{}
	for _, q := range u.Disjuncts {
		for _, t := range eval.NaiveResult(q, d) {
			if k := t.Key(); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out
}
