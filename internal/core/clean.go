package core

import (
	"context"
	"errors"
	"sort"
	"sync"

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
	r := &Report{}
	degStart := degradedCount(c.raw)
	c.beginMaintained(q)
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
		unverified := c.unverifiedAnswers(q, verified)
		if iter > 0 && len(unverified) == 0 {
			break // while-condition: Q(D) ∖ VerifiedResults = ∅
		}
		stopVerify := c.phase(MetricVerifySeconds, &r.Timings.Verify)
		wrong := c.verifyAnswers(ctx, q, unverified, verified)
		stopVerify()
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		stopDelete := c.phase(MetricDeleteSeconds, &r.Timings.Delete)
		for _, t := range wrong {
			r.WrongAnswers++
			if err := c.removeWrongAnswer(ctx, r, q, t); err != nil {
				stopDelete()
				return finish(err)
			}
		}
		stopDelete()

		// Insertion part (Algorithm 3 lines 7-9).
		stopInsert := c.phase(MetricInsertSeconds, &r.Timings.Insert)
		for {
			if err := ctx.Err(); err != nil {
				stopInsert()
				return finish(err)
			}
			cur := eval.Result(q, c.d)
			proposals := c.completeResults(ctx, q, cur)
			if err := ctx.Err(); err != nil {
				stopInsert()
				return finish(err)
			}
			if len(proposals) == 0 {
				est.ObserveNull()
				if est.ConsecutiveNulls() >= c.cfg.MinNulls {
					break
				}
				continue
			}
			stuck := false
			for _, t := range proposals {
				if failedInsert[t.Key()] {
					// The crowd keeps proposing an answer it cannot witness;
					// don't loop on it forever.
					stuck = true
					continue
				}
				if eval.AnswerHolds(q, c.d, t) {
					continue // an earlier proposal of this round added it
				}
				est.Observe(t.Key())
				r.MissingAnswers++
				err := c.addMissingAnswer(ctx, r, q, t)
				switch {
				case err == nil:
					verified[t.Key()] = true
				case errors.Is(err, ErrCannotComplete):
					failedInsert[t.Key()] = true
				default:
					stopInsert()
					return finish(err)
				}
			}
			if stuck || est.Complete(c.cfg.MinSamples, c.cfg.MinNulls) {
				break
			}
		}
		stopInsert()
	}
	return finish(nil)
}

// completeResults poses COMPL(Q(D)) to the crowd — in Parallel mode several
// copies are posted together (§6.2: "post together multiple completion
// questions"), and the distinct proposals are returned in deterministic
// order. Serial mode asks once.
func (c *Cleaner) completeResults(ctx context.Context, q *cq.Query, cur []db.Tuple) []db.Tuple {
	if !c.cfg.Parallel {
		if t, ok := c.oracle.CompleteResult(ctx, q, cur); ok {
			return []db.Tuple{t}
		}
		return nil
	}
	fanout := 3
	results := make([]db.Tuple, fanout)
	oks := make([]bool, fanout)
	var wg sync.WaitGroup
	for i := 0; i < fanout; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], oks[i] = c.oracle.CompleteResult(ctx, q, cur)
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool)
	var out []db.Tuple
	for i, t := range results {
		if oks[i] && !seen[t.Key()] {
			seen[t.Key()] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// unverifiedAnswers returns Q(D) ∖ VerifiedResults in deterministic order.
func (c *Cleaner) unverifiedAnswers(q *cq.Query, verified map[string]bool) []db.Tuple {
	var out []db.Tuple
	for _, t := range eval.Result(q, c.d) {
		if !verified[t.Key()] {
			out = append(out, t)
		}
	}
	return out
}

// verifyAnswers poses TRUE(Q, t)? for every unverified answer — concurrently
// in Parallel mode (§6.2) — marking the true ones verified and returning the
// wrong ones in deterministic order. On a cancelled context the edit-free
// default answers mark nothing wrong.
func (c *Cleaner) verifyAnswers(ctx context.Context, q *cq.Query, tuples []db.Tuple, verified map[string]bool) []db.Tuple {
	if len(tuples) == 0 {
		return nil
	}
	answers := make([]bool, len(tuples))
	if c.cfg.Parallel {
		var wg sync.WaitGroup
		for i, t := range tuples {
			wg.Add(1)
			go func(i int, t db.Tuple) {
				defer wg.Done()
				answers[i] = c.oracle.VerifyAnswer(ctx, q, t)
			}(i, t)
		}
		wg.Wait()
	} else {
		for i, t := range tuples {
			answers[i] = c.oracle.VerifyAnswer(ctx, q, t)
		}
	}
	if ctx.Err() != nil {
		return nil // cancelled mid-round: don't trust or record the defaults
	}
	var wrong []db.Tuple
	for i, t := range tuples {
		if answers[i] {
			verified[t.Key()] = true
		} else {
			wrong = append(wrong, t)
		}
	}
	return wrong
}

// CleanUnion extends Clean to unions of conjunctive queries (the paper notes
// in §2 that its results extend to UCQs). Wrong answers collect witnesses
// from every disjunct that produces them; missing answers are inserted via
// the first disjunct the crowd can witness.
func (c *Cleaner) CleanUnion(ctx context.Context, u *cq.Union) (*Report, error) {
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

		var unverified []db.Tuple
		for _, t := range eval.ResultUnion(u, c.d) {
			if !verified[t.Key()] {
				unverified = append(unverified, t)
			}
		}
		if iter > 0 && len(unverified) == 0 {
			break
		}
		for _, t := range unverified {
			if err := ctx.Err(); err != nil {
				return finish(err)
			}
			// TRUE(U, t)? decomposes into per-disjunct membership: t is a
			// true answer iff some disjunct yields it over DG.
			stopVerify := c.phase(MetricVerifySeconds, &r.Timings.Verify)
			isTrue := false
			for _, q := range u.Disjuncts {
				if c.oracle.VerifyAnswer(ctx, q, t) {
					isTrue = true
					break
				}
			}
			stopVerify()
			if err := ctx.Err(); err != nil {
				return finish(err)
			}
			if isTrue {
				verified[t.Key()] = true
				continue
			}
			r.WrongAnswers++
			// Remove the answer from every disjunct that currently yields it.
			stopDelete := c.phase(MetricDeleteSeconds, &r.Timings.Delete)
			for _, q := range u.Disjuncts {
				if eval.AnswerHolds(q, c.d, t) {
					if err := c.removeWrongAnswer(ctx, r, q, t); err != nil {
						stopDelete()
						return finish(err)
					}
				}
			}
			stopDelete()
		}

		stopInsert := c.phase(MetricInsertSeconds, &r.Timings.Insert)
		for {
			if err := ctx.Err(); err != nil {
				stopInsert()
				return finish(err)
			}
			cur := eval.ResultUnion(u, c.d)
			t, proposer, ok := c.completeResultUnion(ctx, u, cur)
			if err := ctx.Err(); err != nil {
				stopInsert()
				return finish(err)
			}
			if !ok {
				est.ObserveNull()
				if est.ConsecutiveNulls() >= c.cfg.MinNulls {
					break
				}
				continue
			}
			if failedInsert[t.Key()] {
				break
			}
			est.Observe(t.Key())
			r.MissingAnswers++
			// Insert t through the disjunct that proposed it first:
			// CompleteResult guarantees t ∈ q(DG) for the proposer, which is
			// the precondition for Algorithm 2's unasked ground-atom inserts.
			// Any other disjunct must be confirmed with TRUE(Q, t)? before
			// addMissingAnswer runs, or the shortcut would insert facts
			// outside DG when t is an answer of the union but not of q
			// (corrupting D instead of converging it).
			inserted := false
			for off := 0; off < len(u.Disjuncts); off++ {
				i := (proposer + off) % len(u.Disjuncts)
				q := u.Disjuncts[i]
				if len(t) != q.Arity() {
					continue
				}
				if i != proposer && !c.oracle.VerifyAnswer(ctx, q, t) {
					continue
				}
				if err := ctx.Err(); err != nil {
					stopInsert()
					return finish(err)
				}
				err := c.addMissingAnswer(ctx, r, q, t)
				if err == nil {
					inserted = true
					break
				}
				if !errors.Is(err, ErrCannotComplete) {
					stopInsert()
					return finish(err)
				}
			}
			if inserted {
				verified[t.Key()] = true
			} else {
				failedInsert[t.Key()] = true
			}
			if est.Complete(c.cfg.MinSamples, c.cfg.MinNulls) {
				break
			}
		}
		stopInsert()
	}
	return finish(nil)
}

// completeResultUnion asks COMPL over the union: each disjunct is probed for
// a missing answer against the union's current result. The index of the
// proposing disjunct is returned with the tuple — CompleteResult's contract
// puts t in that disjunct's ground-truth result, which the insertion path
// relies on.
func (c *Cleaner) completeResultUnion(ctx context.Context, u *cq.Union, current []db.Tuple) (db.Tuple, int, bool) {
	for i, q := range u.Disjuncts {
		if t, ok := c.oracle.CompleteResult(ctx, q, current); ok {
			return t, i, true
		}
	}
	return nil, 0, false
}
