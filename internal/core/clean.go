package core

import (
	"context"
	"errors"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/enumest"
	"repro/internal/eval"
)

// Clean implements Algorithm 3 (the main algorithm): it iteratively verifies
// the answers of Q over the database, removes the wrong ones
// (CrowdRemoveWrongAnswer), and asks the crowd for missing answers to add
// (CrowdAddMissingAnswer), until every answer of Q(D) is verified and the
// enumeration black box (§6.1) declares the result complete. Fixing one type
// of error can surface errors of the other type (Example 6.1); each edit
// brings D closer to DG (Prop 3.3), so with a correct crowd the loop
// converges. ErrNoConvergence is returned if MaxIterations trips first.
//
// Cancelling ctx stops the run between questions: Clean returns ctx.Err()
// (with the partial report) without waiting for outstanding crowd answers.
func (c *Cleaner) Clean(ctx context.Context, q *cq.Query) (*Report, error) {
	return c.clean(ctx, &cq.Union{Disjuncts: []*cq.Query{q}})
}

// CleanUnion extends Clean to unions of conjunctive queries (the paper notes
// in §2 that its results extend to UCQs). An answer is true when some
// disjunct yields it over DG; a wrong answer is removed from every disjunct
// that yields it over D; a missing answer is inserted through the disjunct
// that proposed it.
func (c *Cleaner) CleanUnion(ctx context.Context, u *cq.Union) (*Report, error) {
	return c.clean(ctx, u)
}

// clean runs Algorithm 3 over the disjuncts of u; Clean passes a CQ≠ as a
// union of one. Each round verifies Q(D) ∖ VerifiedResults, then removes the
// wrong answers, then asks COMPL(Q(D)) until the §6.1 estimator stops.
func (c *Cleaner) clean(ctx context.Context, u *cq.Union) (*Report, error) {
	r := &Report{}
	degStart := degradedCount(c.raw)
	c.beginMaintained(u.Disjuncts...)
	finish := func(err error) (*Report, error) {
		c.finishEval()
		r.Crowd = c.oracle.Snapshot()
		if n := degradedCount(c.raw) - degStart; n > 0 {
			r.Degraded = true
			r.DegradedQuestions = n
		}
		return r, err
	}
	defer c.phase(MetricCleanSeconds, &r.Timings.Total)()
	verified := make(map[string]bool)
	failedInsert := make(map[string]bool)
	est := enumest.New()

	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		if iter >= c.cfg.MaxIterations {
			return finish(ErrNoConvergence)
		}
		r.Iterations = iter + 1
		c.setIteration(iter + 1)

		// Deletion part (Algorithm 3 lines 2-6).
		var unverified []db.Tuple
		for _, t := range c.result(u) {
			if !verified[t.Key()] {
				unverified = append(unverified, t)
			}
		}
		if iter > 0 && len(unverified) == 0 {
			break // while-condition: Q(D) ∖ VerifiedResults = ∅
		}
		stopVerify := c.phase(MetricVerifySeconds, &r.Timings.Verify)
		wrong := c.verifyAnswers(ctx, u, unverified, verified)
		stopVerify()
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		stopDelete := c.phase(MetricDeleteSeconds, &r.Timings.Delete)
		for _, t := range wrong {
			r.WrongAnswers++
			for _, q := range u.Disjuncts {
				// A union runs Algorithm 1 only on the disjuncts that still
				// yield t. A CQ≠ skips the probe: Algorithm 1 finds no
				// witness when an earlier removal already took t out.
				if len(u.Disjuncts) > 1 && !eval.AnswerHolds(q, c.d, t) {
					continue
				}
				if err := c.removeWrongAnswer(ctx, r, q, t); err != nil {
					stopDelete()
					return finish(err)
				}
			}
		}
		stopDelete()

		// Insertion part (Algorithm 3 lines 7-9).
		stopInsert := c.phase(MetricInsertSeconds, &r.Timings.Insert)
		err := c.insertMissing(ctx, r, u, est, verified, failedInsert)
		stopInsert()
		if err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}

// result evaluates Q(D). A union of one evaluates as its query, so Clean
// makes the evaluation calls of a plain CQ≠ run.
func (c *Cleaner) result(u *cq.Union) []db.Tuple {
	if len(u.Disjuncts) == 1 {
		return eval.Result(u.Disjuncts[0], c.d)
	}
	return eval.ResultUnion(u, c.d)
}

// verifyAnswers poses TRUE(Q, t)? for every unverified answer, asking each
// disjunct in turn until one says yes. It marks the true answers verified
// and returns the wrong ones in order. The context is checked before every
// ask: a cancelled round stops asking and marks nothing wrong, because the
// edit-free defaults it got are not answers.
func (c *Cleaner) verifyAnswers(ctx context.Context, u *cq.Union, tuples []db.Tuple, verified map[string]bool) []db.Tuple {
	var wrong []db.Tuple
	for _, t := range tuples {
		isTrue := false
		for _, q := range u.Disjuncts {
			if ctx.Err() != nil {
				return nil
			}
			if isTrue = c.oracle.VerifyAnswer(ctx, q, t); isTrue {
				break
			}
		}
		if isTrue {
			verified[t.Key()] = true
		} else {
			wrong = append(wrong, t)
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	return wrong
}

// insertMissing is the insertion part of a round: it asks COMPL(Q(D)) and
// inserts each proposed answer until the §6.1 estimator declares Q(D)
// complete. Answers it inserts are marked verified; answers the crowd cannot
// witness are marked failed, and a failed answer proposed again ends the
// part.
func (c *Cleaner) insertMissing(ctx context.Context, r *Report, u *cq.Union, est *enumest.Estimator, verified, failed map[string]bool) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t, proposer, ok := c.completeResult(ctx, u, c.result(u))
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ok {
			est.ObserveNull()
			if est.ConsecutiveNulls() >= c.cfg.MinNulls {
				return nil
			}
			continue
		}
		if failed[t.Key()] {
			// The crowd keeps proposing an answer it cannot witness; don't
			// loop on it forever.
			return nil
		}
		// A crowd member may propose an answer Q(D) already yields; it needs
		// no insertion.
		if !c.yields(u, t) {
			est.Observe(t.Key())
			r.MissingAnswers++
			inserted, err := c.insertAnswer(ctx, r, u, proposer, t)
			if err != nil {
				return err
			}
			if inserted {
				verified[t.Key()] = true
			} else {
				failed[t.Key()] = true
			}
		}
		if est.Complete(c.cfg.MinSamples, c.cfg.MinNulls) {
			return nil
		}
	}
}

// completeResult poses COMPL(Q(D)) to each disjunct in turn, against the
// current result cur, and returns the first proposal with the index of the
// disjunct that proposed it.
func (c *Cleaner) completeResult(ctx context.Context, u *cq.Union, cur []db.Tuple) (db.Tuple, int, bool) {
	for i, q := range u.Disjuncts {
		if ctx.Err() != nil {
			break
		}
		if t, ok := c.oracle.CompleteResult(ctx, q, cur); ok {
			return t, i, true
		}
	}
	return nil, 0, false
}

// yields reports whether t ∈ Q(D), probing a union of one as its query, as
// result does.
func (c *Cleaner) yields(u *cq.Union, t db.Tuple) bool {
	if len(u.Disjuncts) == 1 {
		return eval.AnswerHolds(u.Disjuncts[0], c.d, t)
	}
	return eval.AnswerHoldsUnion(u, c.d, t)
}

// insertAnswer runs Algorithm 2 for a proposed missing answer t, first
// through the disjunct that proposed it: CompleteResult's contract puts t in
// that disjunct's ground-truth result, the precondition for Algorithm 2's
// unasked ground-atom inserts. Any other disjunct is tried only after the
// crowd confirms t for it with TRUE(Q, t)?; otherwise the shortcut would
// insert facts outside DG when t answers the union but not that disjunct. It
// reports whether some disjunct completed a witness.
func (c *Cleaner) insertAnswer(ctx context.Context, r *Report, u *cq.Union, proposer int, t db.Tuple) (bool, error) {
	for off := range u.Disjuncts {
		i := (proposer + off) % len(u.Disjuncts)
		q := u.Disjuncts[i]
		if len(t) != q.Arity() {
			continue
		}
		if i != proposer && !c.oracle.VerifyAnswer(ctx, q, t) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if err := c.addMissingAnswer(ctx, r, q, t); !errors.Is(err, ErrCannotComplete) {
			return err == nil, err
		}
	}
	return false, nil
}
