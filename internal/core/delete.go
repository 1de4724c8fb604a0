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
	witnesses := eval.Witnesses(q, c.d, t)
	c.cfg.Obs.Observe(MetricWitnessSets, float64(len(witnesses)))
	if len(witnesses) == 0 {
		return nil
	}
	// Build the set system over fact keys, remembering key -> fact.
	facts := newWitnessFacts()
	ss := hitting.NewSetSystem()
	var keys []string
	for _, w := range witnesses {
		keys = keys[:0]
		for _, f := range w {
			keys = append(keys, facts.key(f))
		}
		ss.Add(keys)
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
				if err := c.apply(r, db.Deletion(facts.fact(k))); err != nil {
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
				if err := c.apply(r, db.Deletion(facts.fact(k))); err != nil {
					return err
				}
				ss.RemoveSetsContaining(k)
			}
			if ss.Empty() {
				break
			}
		}
		k := c.pickCandidate(ss)
		if c.verifyFact(ctx, facts.fact(k)) {
			ss.RemoveElement(k)
			continue
		}
		if err := ctx.Err(); err != nil {
			return err // the "true" default above kept this branch edit-free
		}
		if err := c.apply(r, db.Deletion(facts.fact(k))); err != nil {
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
// (the "total" bar in Figure 3a). The witnesses come through the evaluation
// cache, so the Figure-3 sweeps do not pay a cold evaluation per bound.
func WrongAnswerUpperBound(q *cq.Query, d db.Reader, t db.Tuple) int {
	facts := newWitnessFacts()
	for _, w := range eval.Witnesses(q, d, t) {
		for _, f := range w {
			facts.key(f)
		}
	}
	return len(facts.keys)
}

// witnessFacts indexes the distinct facts of an answer's witnesses by key.
// Each fact is keyed on a reused buffer, so a fact seen before costs a map
// lookup and no allocation; only a new fact allocates its key.
type witnessFacts struct {
	buf   []byte
	index map[string]int // fact key -> position in keys and facts
	keys  []string
	facts []db.Fact
}

func newWitnessFacts() *witnessFacts {
	return &witnessFacts{index: make(map[string]int)}
}

// key returns f's key, allocating it only the first time f is seen.
func (w *witnessFacts) key(f db.Fact) string {
	w.buf = f.AppendKey(w.buf[:0])
	if i, ok := w.index[string(w.buf)]; ok {
		return w.keys[i]
	}
	k := string(w.buf)
	w.index[k] = len(w.keys)
	w.keys = append(w.keys, k)
	w.facts = append(w.facts, f)
	return k
}

// fact returns the fact whose key is k.
func (w *witnessFacts) fact(k string) db.Fact { return w.facts[w.index[k]] }

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
