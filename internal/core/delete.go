package core

import (
	"context"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/hitting"
	"repro/internal/provenance"
)

// RemoveWrongAnswer implements Algorithm 1 (CrowdRemoveWrongAnswer) and its
// baselines: it derives deletion edits that remove the wrong answer t from
// Q(D) by destroying every witness, asking the crowd which witness tuples are
// false. The edits are applied to the database and returned. If t is not in
// Q(D) it returns no edits.
//
// With PolicyQOCO, singleton witness sets are resolved without questions:
// once the singleton elements hit every remaining witness, a unique minimal
// hitting set exists (Theorem 4.5) and its tuples must be false. PolicyQOCO
// also consults the never-repeat caches, so a tuple whose truth is already
// known costs nothing.
func (c *Cleaner) RemoveWrongAnswer(ctx context.Context, q *cq.Query, t db.Tuple) ([]db.Edit, error) {
	r := &Report{}
	defer c.phase(MetricDeleteSeconds, &r.Timings.Delete)()
	if err := c.removeWrongAnswer(ctx, r, q, t); err != nil {
		return r.Edits, err
	}
	return r.Edits, nil
}

func (c *Cleaner) removeWrongAnswer(ctx context.Context, r *Report, q *cq.Query, t db.Tuple) error {
	ws := NewWitnessSystem(q, c.d, t)
	ss := ws.SetSystem
	c.cfg.Obs.Observe(MetricWitnessSets, float64(ss.Len()))
	if ss.Empty() {
		return nil
	}
	// The unique-minimal-hitting-set shortcut (Theorem 4.5) relies on every
	// witness containing at least one false tuple, which holds only for
	// negation-free queries: under negation a wrong answer can have an
	// all-true witness whose repair is inserting a blocking fact instead.
	useSingleton := c.cfg.Deletion.usesSingletonRule() && len(q.Negs) == 0
	// Resolve tuples whose truth is already cached: false ones destroy their
	// witnesses immediately, true ones are removed from every set. This keeps
	// the "questions are never repeated" invariant across answers that share
	// witness tuples. Facts are resolved in key order, so the edits come out
	// in the same order on every run.
	if useSingleton {
		c.mu.Lock()
		for _, k := range ss.Elements() {
			if c.knownFalse[k] {
				if err := c.apply(r, db.Deletion(ws.Fact(k))); err != nil {
					c.mu.Unlock()
					return err
				}
				ss.RemoveSetsContaining(k)
			} else if c.knownTrue[k] {
				ss.RemoveElement(k)
			}
		}
		c.mu.Unlock()
	}

	for !ss.Empty() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if useSingleton {
			// Lines 2-4: singleton tuples must be false; delete without asking.
			for _, k := range ss.Singletons() {
				c.markFalse(k)
				if err := c.apply(r, db.Deletion(ws.Fact(k))); err != nil {
					return err
				}
				ss.RemoveSetsContaining(k)
			}
			if ss.Empty() {
				break
			}
		}
		k := c.pickCandidate(ss)
		if c.verifyFact(ctx, ws.Fact(k)) {
			ss.RemoveElement(k)
			continue
		}
		if err := ctx.Err(); err != nil {
			return err // the "true" default above kept this branch edit-free
		}
		if err := c.apply(r, db.Deletion(ws.Fact(k))); err != nil {
			return err
		}
		ss.RemoveSetsContaining(k)
	}
	if len(q.Negs) > 0 {
		return c.repairNegationBlockers(ctx, r, q, t)
	}
	return nil
}

// repairNegationBlockers handles wrong answers of queries with negated atoms
// (the §9 negation extension): when every positive witness fact is true, the
// answer must instead be blocked by a fact of a negated atom that is missing
// from D. The crowd verifies each candidate blocker; true ones are inserted,
// invalidating the assignment.
func (c *Cleaner) repairNegationBlockers(ctx context.Context, r *Report, q *cq.Query, t db.Tuple) error {
	for guard := 0; eval.AnswerHolds(q, c.d, t); guard++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if guard > len(q.Negs)*64+16 {
			return nil // oracle inconsistency: stop rather than loop forever
		}
		progressed := false
		for _, a := range eval.AssignmentsFor(q, c.d, t) {
			for _, atom := range q.Negs {
				f, ok := a.AtomFact(atom)
				if !ok || c.d.Has(f) {
					continue
				}
				if c.verifyFact(ctx, f) && ctx.Err() == nil {
					if err := c.apply(r, db.Insertion(f)); err != nil {
						return err
					}
					progressed = true
				}
			}
			if progressed {
				break // re-evaluate the remaining assignments
			}
		}
		if !progressed {
			return nil // nothing more the crowd affirms; give up on this answer
		}
	}
	return nil
}

// pickCandidate returns the next tuple to verify according to the deletion
// policy: the most frequent tuple (QOCO, QOCO−), a uniformly random tuple
// (Random), the highest-responsibility tuple (Responsibility), the least
// trustworthy tuple (Trust) or the most influential tuple (Influence).
func (c *Cleaner) pickCandidate(ss *hitting.SetSystem) string {
	switch c.cfg.Deletion {
	case PolicyRandom:
		elems := ss.Elements()
		return elems[c.cfg.RNG.Intn(len(elems))]
	case PolicyResponsibility:
		return c.mostResponsible(ss)
	case PolicyTrust:
		return c.leastTrusted(ss)
	case PolicyInfluence:
		dnf := &provenance.DNF{Terms: ss.Sets()}
		return dnf.MostInfluential(c.cfg.TrustScores)
	}
	return ss.MostFrequent(c.cfg.RNG)
}

// mostResponsible picks the candidate with the highest responsibility for the
// wrong answer in the sense of Meliou et al. (the paper's [46]): the tuple t
// whose minimum contingency set Γ — other tuples to remove so that t alone
// becomes counterfactual, i.e. a hitting set of the witnesses avoiding t —
// is smallest (responsibility 1/(1+|Γ|)). The contingency is approximated
// with the greedy hitting set. Ties break toward higher witness frequency,
// then lexicographically.
func (c *Cleaner) mostResponsible(ss *hitting.SetSystem) string {
	freq := ss.Frequencies()
	best := ""
	bestGamma := -1
	for _, e := range ss.Elements() {
		// Witnesses not containing e must be destroyed by the contingency.
		rest := hitting.NewSetSystem()
		for _, set := range ss.Sets() {
			contains := false
			for _, x := range set {
				if x == e {
					contains = true
					break
				}
			}
			if !contains {
				rest.Add(set)
			}
		}
		gamma := len(rest.Greedy())
		switch {
		case best == "",
			gamma < bestGamma,
			gamma == bestGamma && freq[e] > freq[best],
			gamma == bestGamma && freq[e] == freq[best] && e < best:
			best, bestGamma = e, gamma
		}
	}
	return best
}

// leastTrusted picks the candidate with the lowest trust score (default 0.5
// for unscored facts), breaking ties toward higher witness frequency, then
// lexicographically.
func (c *Cleaner) leastTrusted(ss *hitting.SetSystem) string {
	freq := ss.Frequencies()
	trust := func(key string) float64 {
		if s, ok := c.cfg.TrustScores[key]; ok {
			return s
		}
		return 0.5
	}
	best := ""
	for _, e := range ss.Elements() {
		switch {
		case best == "",
			trust(e) < trust(best),
			trust(e) == trust(best) && freq[e] > freq[best],
			trust(e) == trust(best) && freq[e] == freq[best] && e < best:
			best = e
		}
	}
	return best
}

func (c *Cleaner) markFalse(key string) {
	c.mu.Lock()
	c.knownFalse[key] = true
	delete(c.knownTrue, key)
	c.mu.Unlock()
}

// WrongAnswerUpperBound returns the number of distinct witness tuples of t,
// the cost of the naive algorithm that verifies every tuple of every witness
// (the "total" bar in Figure 3a). Each call enumerates t's witnesses.
func WrongAnswerUpperBound(q *cq.Query, d db.Reader, t db.Tuple) int {
	return len(NewWitnessSystem(q, d, t).facts)
}

// WitnessSystem is Algorithm 1's hitting-set system for one answer: one set
// per witness, over fact keys, with the fact behind each element.
type WitnessSystem struct {
	*hitting.SetSystem
	facts []db.Fact // element ID -> fact, over the store's own tuple
}

// NewWitnessSystem builds the witness system of answer t of q over d straight
// from the join search, which interns each stored tuple once: its fact is
// keyed in a stack buffer and, when the key is new, kept as given.
func NewWitnessSystem(q *cq.Query, d db.Reader, t db.Tuple) *WitnessSystem {
	w := &WitnessSystem{SetSystem: hitting.NewSetSystem()}
	eval.VisitWitnesses(q, d, t, w.intern, w.AddIDs)
	return w
}

// intern returns the element ID of a fact whose Args is a stored tuple.
func (w *WitnessSystem) intern(f db.Fact) int32 {
	var kb [128]byte
	id := w.InternKey(f.AppendKey(kb[:0]))
	if int(id) == len(w.facts) { // IDs are dense: a new element
		w.facts = append(w.facts, f)
	}
	return id
}

// Fact returns a copy of the fact of the element named e, which must be an
// element of the system. The name is already interned, so interning it again
// is a lookup. The copy keeps a fact the caller holds on to, such as a
// report's deletion, from pinning the store's storage behind the tuple.
func (w *WitnessSystem) Fact(e string) db.Fact {
	var kb [128]byte
	return w.facts[w.InternKey(append(kb[:0], e...))].Clone()
}

// MissingAnswerUpperBound returns the number of unique variables of Q|t, the
// worst-case number of values the crowd must provide under the naive
// no-split insertion (the "total" bar in Figure 3b). The bound is purely
// syntactic.
func MissingAnswerUpperBound(q *cq.Query, t db.Tuple) int {
	qt, err := q.Embed(t)
	if err != nil {
		return 0
	}
	return len(qt.Vars())
}
