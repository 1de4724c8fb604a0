package core

import (
	"context"
	"errors"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// AddMissingAnswer implements Algorithm 2 (CrowdAddMissingAnswer): it derives
// insertion edits that make t an answer of Q over the database, using the
// split strategy to direct the crowd with data that already exists in D. The
// edits are applied and returned. ErrCannotComplete is reported when the
// crowd cannot produce a witness (with a perfect oracle: t ∉ Q(DG)).
func (c *Cleaner) AddMissingAnswer(ctx context.Context, q *cq.Query, t db.Tuple) ([]db.Edit, error) {
	r := &Report{}
	defer c.phase(MetricInsertSeconds, &r.Timings.Insert)()
	if err := c.addMissingAnswer(ctx, r, q, t); err != nil {
		return r.Edits, err
	}
	return r.Edits, nil
}

func (c *Cleaner) addMissingAnswer(ctx context.Context, r *Report, q *cq.Query, t db.Tuple) error {
	qt, err := q.Embed(t)
	if err != nil {
		if errors.Is(err, cq.ErrUnsatisfiableAnswer) {
			// t can never be an answer of this query (it grounds an
			// inequality to equal constants, or conflicts with the head):
			// no crowd work can complete it. CleanUnion relies on this to
			// fall through to the next disjunct instead of aborting.
			return ErrCannotComplete
		}
		return err
	}
	if c.cfg.MinimizeQueries {
		// Q|t's head lists every variable by construction, which would pin
		// them all and make folding impossible. For witness-finding the head
		// is irrelevant (making any witness true makes t an answer, by
		// homomorphic equivalence), so minimize the Boolean version and
		// rebuild the head from the surviving variables.
		boolQt := qt.Clone()
		boolQt.Head = nil
		boolQt = cq.Minimize(boolQt)
		seen := make(map[string]bool)
		for _, atom := range boolQt.Atoms {
			for _, term := range atom.Args {
				if term.IsVar && !seen[term.Name] {
					seen[term.Name] = true
					boolQt.Head = append(boolQt.Head, term)
				}
			}
		}
		qt = boolQt
	}
	// Under maintained evaluation, materialize Q|t transiently: the Holds
	// probes below and every edit of this insertion then cost O(delta)
	// instead of re-enumerating Q|t per round. Released on return unless the
	// engine already maintained an identical query (a boolean Q embeds to
	// itself), which must survive this call.
	if c.engine != nil && !c.engine.Maintains(qt) {
		if err := c.engine.Ensure(qt); err == nil {
			defer c.engine.Release(qt)
		}
	}
	// Lines 1-2: all-constant atoms of Q|t hold in DG whenever t is a true
	// answer, so insert them without asking.
	for _, f := range qt.GroundAtoms() {
		c.markTrueFact(f)
		if err := c.apply(r, db.Insertion(f)); err != nil {
			return err
		}
	}
	// Line 3: seed the subquery queue.
	var queue []*cq.Query
	if l, rr, ok := c.cfg.Split.Split(qt, c.d); ok {
		queue = append(queue, l, rr)
	}
	// Lines 4-17: process subqueries until a witness materializes.
	for len(queue) > 0 && !eval.Holds(qt, c.d, eval.Assignment{}) {
		if err := ctx.Err(); err != nil {
			return err
		}
		currQ := queue[0]
		queue = queue[1:]
		done, err := c.trySubquery(ctx, r, qt, currQ)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if len(currQ.Atoms) > 1 {
			if l, rr, ok := c.cfg.Split.Split(currQ, c.d); ok {
				queue = append(queue, l, rr)
			}
		}
	}
	if eval.Holds(qt, c.d, eval.Assignment{}) {
		return nil
	}
	// Line 18: fall back to asking the crowd for an entire witness.
	full, ok := c.complete(ctx, qt, eval.Assignment{})
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ok {
		return ErrCannotComplete
	}
	return c.insertWitness(ctx, r, qt, full)
}

// trySubquery evaluates one subquery (Algorithm 2 lines 6-15): for each of
// its assignments over D, verify the induced grounded part of Q|t with the
// crowd, and either recognize a total valid assignment or ask the crowd to
// complete a satisfiable partial one.
func (c *Cleaner) trySubquery(ctx context.Context, r *Report, qt, currQ *cq.Query) (bool, error) {
	asgs := eval.Eval(currQ, c.d)
	// Prefer assignments that ground more of Q|t: they are closer to full
	// witnesses and need less crowd completion work. Rank before capping so
	// the cap keeps the most promising candidates.
	sort.SliceStable(asgs, func(i, j int) bool {
		return groundedAtoms(qt, asgs[i]) > groundedAtoms(qt, asgs[j])
	})
	if len(asgs) > c.cfg.AssignmentCap {
		asgs = asgs[:c.cfg.AssignmentCap]
	}
	for _, a := range asgs {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if !c.verifyGrounded(ctx, qt, a) {
			continue // some induced fact is false or a ground inequality fails
		}
		if a.TotalFor(qt) {
			// Line 8-10: a total valid assignment w.r.t. DG.
			return true, c.insertWitness(ctx, r, qt, a)
		}
		// Lines 12-15: ask the crowd to complete the partial assignment.
		full, ok := c.complete(ctx, qt, a)
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		return true, c.insertWitness(ctx, r, qt, full)
	}
	return false, nil
}

// verifyGrounded implements CrowdVerify(α(body(Q|t))): every fully grounded
// atom must be a true fact, every grounded inequality must hold, and no
// grounded negated atom may denote a true fact. Atoms with unbound variables
// are skipped (they are not yet facts).
func (c *Cleaner) verifyGrounded(ctx context.Context, qt *cq.Query, a eval.Assignment) bool {
	for _, e := range qt.Ineqs {
		if !a.IneqHolds(e) {
			return false
		}
	}
	for _, atom := range qt.Atoms {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue
		}
		if !c.verifyFact(ctx, f) {
			return false
		}
	}
	for _, atom := range qt.Negs {
		f, ok := a.AtomFact(atom)
		if !ok {
			continue
		}
		if c.verifyFact(ctx, f) {
			return false // the negated atom's fact is true: α cannot hold
		}
	}
	return true
}

// complete poses COMPL(α, Q|t), consulting the non-satisfiable cache so the
// same hopeless partial assignment is never sent to the crowd twice. The
// crowd call happens outside c.mu, as in verifyFact, so Progress stays
// responsive while the question waits.
func (c *Cleaner) complete(ctx context.Context, qt *cq.Query, a eval.Assignment) (eval.Assignment, bool) {
	key := qt.String() + "\x1d" + a.Key()
	c.mu.Lock()
	known := c.unsat[key]
	c.mu.Unlock()
	if known {
		return nil, false
	}
	full, ok := c.oracle.Complete(ctx, qt, a)
	if !ok && ctx.Err() == nil {
		c.mu.Lock()
		c.unsat[key] = true
		c.mu.Unlock()
	}
	return full, ok
}

// insertWitness applies insertion edits for every fact of α(body(Q|t)) that
// is missing from D (the witness facts the crowd affirmed or provided). For
// queries with negated atoms, blocking facts matching a negated atom under
// the assignment are then verified with the crowd: false blockers are
// deleted; a true blocker means this witness cannot hold in the ground truth
// (ErrCannotComplete).
func (c *Cleaner) insertWitness(ctx context.Context, r *Report, qt *cq.Query, a eval.Assignment) error {
	for _, f := range a.Witness(qt) {
		c.markTrueFact(f)
		if err := c.apply(r, db.Insertion(f)); err != nil {
			return err
		}
	}
	for _, f := range eval.BlockingFacts(qt, c.d, a) {
		if c.verifyFact(ctx, f) && ctx.Err() == nil {
			return ErrCannotComplete // a true fact blocks this witness
		}
		if err := c.apply(r, db.Deletion(f)); err != nil {
			return err
		}
	}
	return nil
}

// groundedAtoms counts the atoms of q fully grounded under a.
func groundedAtoms(q *cq.Query, a eval.Assignment) int {
	n := 0
	for _, atom := range q.Atoms {
		if _, ok := a.AtomFact(atom); ok {
			n++
		}
	}
	return n
}
