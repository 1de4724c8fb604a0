package crowd

import (
	"context"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// Perfect is the simulated perfect oracle of §7: it consults the ground
// truth database DG and always answers correctly. The paper reports that real
// perfect experts produced results identical to this simulation.
type Perfect struct {
	dg *db.Database
}

// NewPerfect builds a perfect oracle over the ground truth database.
func NewPerfect(dg *db.Database) *Perfect { return &Perfect{dg: dg} }

// GroundTruth exposes the underlying DG (used by experiment harnesses to
// check convergence, never by the cleaning algorithms).
func (p *Perfect) GroundTruth() *db.Database { return p.dg }

// VerifyFact implements Oracle: TRUE(R(ā))? holds iff R(ā) ∈ DG.
func (p *Perfect) VerifyFact(_ context.Context, f db.Fact) bool { return p.dg.Has(f) }

// VerifyAnswer implements Oracle: TRUE(Q, t)? holds iff t ∈ Q(DG).
func (p *Perfect) VerifyAnswer(_ context.Context, q *cq.Query, t db.Tuple) bool {
	return eval.AnswerHolds(q, p.dg, t)
}

// Complete implements Oracle: if the partial assignment is satisfiable
// w.r.t. DG it returns the valid total extension first in Assignment.Key
// order; otherwise ok = false.
func (p *Perfect) Complete(_ context.Context, q *cq.Query, partial eval.Assignment) (eval.Assignment, bool) {
	exts := eval.Best(q, p.dg, partial, 1)
	if len(exts) == 0 {
		return nil, false
	}
	return exts[0], true
}

// CompleteResult implements Oracle: it returns the lexicographically smallest
// answer of Q(DG) not present in current, or ok = false when current covers
// Q(DG).
func (p *Perfect) CompleteResult(_ context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	have := make(map[string]bool, len(current))
	for _, t := range current {
		have[t.Key()] = true
	}
	for _, t := range eval.Result(q, p.dg) {
		if !have[t.Key()] {
			return t, true
		}
	}
	return nil, false
}
