package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
	"repro/internal/schema"
)

// newTestCleaner builds a cleaner over the Figure 1 database with a perfect
// oracle and the given config.
func newTestCleaner(t *testing.T, cfg Config) (*Cleaner, *db.Database, *db.Database) {
	t.Helper()
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), cfg)
	return c, d, dg
}

// TestRemoveWrongAnswerESP reproduces the Example 4.6 scenario: removing the
// wrong answer (ESP) from Q1(D) must delete only false tuples and destroy
// every witness, with at most 5 crowd questions (the 5 distinct witness
// tuples) — strictly fewer when the unique-hitting-set shortcut fires.
func TestRemoveWrongAnswerESP(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c, d, dg := newTestCleaner(t, Config{RNG: rand.New(rand.NewSource(seed))})
		q := dataset.IntroQ1()
		if ub := WrongAnswerUpperBound(q, d, db.Tuple{"ESP"}); ub != 5 {
			t.Fatalf("upper bound = %d, want 5 distinct witness tuples", ub)
		}
		edits, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"ESP"})
		if err != nil {
			t.Fatalf("seed %d: RemoveWrongAnswer: %v", seed, err)
		}
		if eval.AnswerHolds(q, d, db.Tuple{"ESP"}) {
			t.Fatalf("seed %d: (ESP) still in Q1(D)", seed)
		}
		for _, e := range edits {
			if e.Op != db.Delete {
				t.Errorf("seed %d: non-deletion edit %v", seed, e)
			}
			if dg.Has(e.Fact) {
				t.Errorf("seed %d: deleted a true fact %v", seed, e.Fact)
			}
		}
		if len(edits) < 2 {
			// At least two of the three false ESP finals must go: a single
			// deletion leaves two wins standing.
			t.Errorf("seed %d: only %d deletions", seed, len(edits))
		}
		qs := c.Stats().VerifyFactQs
		if qs > 5 {
			t.Errorf("seed %d: asked %d questions, naive bound is 5", seed, qs)
		}
		// (GER) must survive: its witnesses share no false tuples.
		if !eval.AnswerHolds(q, d, db.Tuple{"GER"}) {
			t.Errorf("seed %d: (GER) was collateral damage", seed)
		}
	}
}

// TestExample46ScriptedFlow pins the exact question sequence of Example 4.6
// by replaying it with a deterministic tie-break order. After the crowd
// verifies t3 (true), t5 (false), t1 (true), the sets reduce to {t2},{t2,t4},
// {t4} — a unique minimal hitting set — and QOCO deletes t2, t4 without
// further questions: exactly 3 questions in total.
func TestExample46ScriptedFlow(t *testing.T) {
	// Find a seed whose random tie-breaking reproduces the paper's order.
	q := dataset.IntroQ1()
	for seed := int64(0); seed < 200; seed++ {
		d, dg := dataset.Figure1()
		c := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(seed))})
		if _, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"ESP"}); err != nil {
			t.Fatalf("RemoveWrongAnswer: %v", err)
		}
		if c.Stats().VerifyFactQs == 3 && db.Distance(d, dg) >= 0 {
			// The 3-question outcome of the paper's walk-through is reachable.
			return
		}
	}
	t.Errorf("no seed reproduced the paper's 3-question flow")
}

// TestSingletonRuleNoQuestions: with a unique minimal hitting set from the
// start (Example 4.4's {t1}, {t1,t2}), QOCO asks nothing.
func TestSingletonRuleNoQuestions(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"a", "b"}},
	)
	d := db.New(s)
	dg := db.New(s)
	// Witnesses for (v): {R(v,w1)} and {R(v,w1), S(v,w2)}? Build directly:
	// q(x) :- R(x, y). Answer (v) has witnesses {R(v,w1)}, {R(v,w2)}: two
	// singletons. Both must be false.
	d.InsertFact(db.NewFact("R", "v", "w1"))
	d.InsertFact(db.NewFact("R", "v", "w2"))
	q := mustQuery(t, "(x) :- R(x, y)")
	c := New(d, crowd.NewPerfect(dg), Config{})
	edits, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"v"})
	if err != nil {
		t.Fatalf("RemoveWrongAnswer: %v", err)
	}
	if got := c.Stats().VerifyFactQs; got != 0 {
		t.Errorf("questions = %d, want 0 (unique minimal hitting set)", got)
	}
	if len(edits) != 2 {
		t.Errorf("edits = %v, want both R facts deleted", edits)
	}
}

// TestQOCOMinusAsksMore: on the singleton-heavy instance above, QOCO− must
// ask questions where QOCO asks none.
func TestQOCOMinusAsksMore(t *testing.T) {
	s := schema.New(schema.Relation{Name: "R", Attrs: []string{"a", "b"}})
	build := func() (*db.Database, *db.Database) {
		d := db.New(s)
		d.InsertFact(db.NewFact("R", "v", "w1"))
		d.InsertFact(db.NewFact("R", "v", "w2"))
		return d, db.New(s)
	}
	q := mustQuery(t, "(x) :- R(x, y)")

	d1, dg1 := build()
	qoco := New(d1, crowd.NewPerfect(dg1), Config{Deletion: PolicyQOCO})
	qoco.RemoveWrongAnswer(context.Background(), q, db.Tuple{"v"})

	d2, dg2 := build()
	minus := New(d2, crowd.NewPerfect(dg2), Config{Deletion: PolicyQOCOMinus})
	minus.RemoveWrongAnswer(context.Background(), q, db.Tuple{"v"})

	if qoco.Stats().VerifyFactQs != 0 {
		t.Errorf("QOCO asked %d, want 0", qoco.Stats().VerifyFactQs)
	}
	if minus.Stats().VerifyFactQs != 2 {
		t.Errorf("QOCO- asked %d, want 2", minus.Stats().VerifyFactQs)
	}
	if !db.Equal(d1, d2) {
		t.Errorf("policies disagree on the final database")
	}
}

// TestDeletionPoliciesAllCorrect: every policy must remove the wrong answer
// and delete only false tuples, differing only in cost.
func TestDeletionPoliciesAllCorrect(t *testing.T) {
	q := dataset.IntroQ1()
	for _, policy := range []DeletionPolicy{PolicyQOCO, PolicyQOCOMinus, PolicyRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				d, dg := dataset.Figure1()
				c := New(d, crowd.NewPerfect(dg), Config{Deletion: policy, RNG: rand.New(rand.NewSource(seed))})
				edits, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"ESP"})
				if err != nil {
					t.Fatalf("%v seed %d: %v", policy, seed, err)
				}
				if eval.AnswerHolds(q, d, db.Tuple{"ESP"}) {
					t.Fatalf("%v seed %d: wrong answer survives", policy, seed)
				}
				for _, e := range edits {
					if dg.Has(e.Fact) {
						t.Errorf("%v seed %d: true fact deleted: %v", policy, seed, e.Fact)
					}
				}
			}
		})
	}
}

// TestDeletionPoliciesIgnoreSetOrder: Algorithm 1 adds a wrong answer's
// witness sets in the join search's order, which follows the order the
// facts were inserted in. No policy may depend on it: every policy, cleaning
// Soccer Q3 with 5 wrong answers from one seed, asks the same questions in
// the same order and applies the same edit script each time. Each run loads
// the dirty facts into a fresh store in its own seeded shuffled order, and
// the runs must see at least two witness orders.
func TestDeletionPoliciesIgnoreSetOrder(t *testing.T) {
	const seed, runs = 1, 10
	dg := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQ3()
	dirty := dg.Clone()
	rng := rand.New(rand.NewSource(seed))
	if n := noise.InjectWrong(dirty, dg, q, 5, rng); n < 5 {
		t.Fatalf("injected %d of 5 wrong answers", n)
	}
	cleanerSeed := rng.Int63()
	facts := dirty.Facts()
	for _, policy := range []DeletionPolicy{PolicyQOCO, PolicyQOCOMinus, PolicyRandom, PolicyResponsibility, PolicyTrust, PolicyInfluence} {
		t.Run(policy.String(), func(t *testing.T) {
			var first string
			orders := make(map[string]bool)
			for run := 0; run < runs; run++ {
				d := db.New(dirty.Schema())
				for _, i := range rand.New(rand.NewSource(int64(run))).Perm(len(facts)) {
					d.InsertFact(facts[i])
				}
				orders[witnessOrder(q, d)] = true
				var questions strings.Builder
				c := New(d, crowd.NewTranscript(crowd.NewPerfect(dg), &questions), Config{
					Deletion: policy, RNG: rand.New(rand.NewSource(cleanerSeed)),
				})
				rep, err := c.Clean(context.Background(), q)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				got := questions.String() + "edits " + editDigest(rep.Edits)
				if run == 0 {
					first = got
				} else if got != first {
					t.Fatalf("run %d asked or edited differently from run 0:\n%s\nrun 0:\n%s", run, got, first)
				}
			}
			if len(orders) < 2 {
				t.Fatalf("%d shuffled stores gave %d witness order, want at least 2", runs, len(orders))
			}
		})
	}
}

// TestWitnessSystemAllocs: building a wrong answer's witness system
// allocates once per distinct fact (its key) plus the doubling growth of the
// system's arrays and maps, never once per witness set or join row. The
// answers are the Soccer Q3 wrong answers BenchmarkRemoveWrongAnswer
// removes, with 33 to 392 witness sets.
func TestWitnessSystemAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled search state at random")
	}
	dg := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQ3()
	d := dg.Clone()
	if n := noise.InjectWrong(d, dg, q, 5, rand.New(rand.NewSource(1))); n < 5 {
		t.Fatalf("injected %d of 5 wrong answers", n)
	}
	const slack = 64 // allocations beyond one per distinct fact
	most := 0
	for _, a := range eval.Result(q, d, eval.NoCache()) {
		if eval.AnswerHolds(q, dg, a) {
			continue
		}
		ws := NewWitnessSystem(q, d, a)
		most = max(most, ws.Len())
		allocs := testing.AllocsPerRun(20, func() { NewWitnessSystem(q, d, a) })
		if limit := len(ws.facts) + slack; allocs >= float64(limit) {
			t.Errorf("%v: %d sets over %d facts took %.0f allocations, want fewer than %d",
				a, ws.Len(), len(ws.facts), allocs, limit)
		}
	}
	if most < 190 {
		t.Fatalf("the largest witness system has %d sets, want one of at least 190", most)
	}
}

// witnessOrder renders the witness sets of every answer of q over d in the
// order Algorithm 1 adds them.
func witnessOrder(q *cq.Query, d db.Reader) string {
	var b strings.Builder
	for _, t := range eval.Result(q, d, eval.NoCache()) {
		fmt.Fprintln(&b, NewWitnessSystem(q, d, t).Sets())
	}
	return b.String()
}

// TestRandomPolicyCostAtLeastQOCO: averaged over seeds, Random asks at least
// as many questions as QOCO (the Figure 3a ordering).
func TestRandomPolicyCostAtLeastQOCO(t *testing.T) {
	q := dataset.IntroQ1()
	total := map[DeletionPolicy]int{}
	for _, policy := range []DeletionPolicy{PolicyQOCO, PolicyRandom} {
		for seed := int64(0); seed < 20; seed++ {
			d, dg := dataset.Figure1()
			c := New(d, crowd.NewPerfect(dg), Config{Deletion: policy, RNG: rand.New(rand.NewSource(seed))})
			if _, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"ESP"}); err != nil {
				t.Fatalf("%v: %v", policy, err)
			}
			total[policy] += c.Stats().VerifyFactQs
		}
	}
	if total[PolicyQOCO] > total[PolicyRandom] {
		t.Errorf("QOCO total %d > Random total %d over 20 seeds", total[PolicyQOCO], total[PolicyRandom])
	}
}

// TestRemoveAbsentAnswerNoop: removing an answer not in Q(D) does nothing.
func TestRemoveAbsentAnswerNoop(t *testing.T) {
	c, _, _ := newTestCleaner(t, Config{})
	q := dataset.IntroQ1()
	edits, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"ITA"})
	if err != nil || len(edits) != 0 {
		t.Errorf("edits = %v, err = %v; want none", edits, err)
	}
	if c.Stats().VerifyFactQs != 0 {
		t.Errorf("questions asked for absent answer")
	}
}

// TestNeverRepeatAcrossAnswers: facts verified while removing one answer are
// not re-asked while removing another.
func TestNeverRepeatAcrossAnswers(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "T", Attrs: []string{"a", "c"}},
	)
	d := db.New(s)
	dg := db.New(s)
	// Two wrong answers share the false fact T(shared, z).
	d.InsertFact(db.NewFact("R", "a1", "b"))
	d.InsertFact(db.NewFact("R", "a2", "b"))
	d.InsertFact(db.NewFact("T", "b", "z"))
	dg.InsertFact(db.NewFact("R", "a1", "b")) // R facts are true; T is false
	dg.InsertFact(db.NewFact("R", "a2", "b"))
	q := mustQuery(t, "(x) :- R(x, y), T(y, z)")

	c := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(0))})
	if _, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"a1"}); err != nil {
		t.Fatal(err)
	}
	q1 := c.Stats().VerifyFactQs
	// Removing (a1) deletes T(b, z), which also kills (a2)'s witness.
	if eval.AnswerHolds(q, d, db.Tuple{"a2"}) {
		t.Fatalf("(a2) should be gone after the shared false tuple was deleted")
	}
	if _, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"a2"}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().VerifyFactQs != q1 {
		t.Errorf("second removal asked %d extra questions, want 0", c.Stats().VerifyFactQs-q1)
	}
}

// TestCachedTruthEditOrder: facts already known false that are back in D are
// deleted by the cached-truth pass in key order, so a seed yields one edit
// script. Removing (a1) deletes the false S(b1)..S(b4); all four are then
// re-inserted out of band, and removing (a2), whose witnesses contain them,
// deletes them again without a question.
func TestCachedTruthEditOrder(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b"}},
	)
	q := mustQuery(t, "(x) :- R(x, y), S(y)")
	var want string
	for run := 0; run < 20; run++ {
		d, dg := db.New(s), db.New(s)
		for _, b := range []string{"b1", "b2", "b3", "b4"} {
			for _, a := range []string{"a1", "a2"} {
				d.InsertFact(db.NewFact("R", a, b))
				dg.InsertFact(db.NewFact("R", a, b))
			}
			d.InsertFact(db.NewFact("S", b))
		}
		c := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(1))})
		first, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"a1"})
		if err != nil {
			t.Fatal(err)
		}
		if len(first) != 4 {
			t.Fatalf("first removal edits = %v, want every S fact deleted", first)
		}
		for _, e := range first {
			d.InsertFact(e.Fact)
		}
		asked := c.Stats().VerifyFactQs
		second, err := c.RemoveWrongAnswer(context.Background(), q, db.Tuple{"a2"})
		if err != nil {
			t.Fatal(err)
		}
		sorted := sort.SliceIsSorted(second, func(i, j int) bool { return second[i].Fact.Key() < second[j].Fact.Key() })
		if len(second) != 4 || !sorted {
			t.Fatalf("second removal edits = %v, want every S fact deleted in key order", second)
		}
		if c.Stats().VerifyFactQs != asked {
			t.Errorf("second removal asked %d questions, want 0", c.Stats().VerifyFactQs-asked)
		}
		got := fmt.Sprint(first, second)
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: edit script %s, run 0 gave %s", run, got, want)
		}
	}
}

func TestDeletionPolicyString(t *testing.T) {
	if PolicyQOCO.String() != "QOCO" || PolicyQOCOMinus.String() != "QOCO-" || PolicyRandom.String() != "Random" {
		t.Errorf("unexpected policy names")
	}
	if DeletionPolicy(9).String() == "" {
		t.Errorf("unknown policy should still render")
	}
}

func TestMissingAnswerUpperBound(t *testing.T) {
	q := dataset.IntroQ2()
	// Q2|Pirlo has variables y, z, w, d, v, u.
	if got := MissingAnswerUpperBound(q, db.Tuple{"Andrea Pirlo"}); got != 6 {
		t.Errorf("upper bound = %d, want 6", got)
	}
	if got := MissingAnswerUpperBound(q, db.Tuple{"bad", "arity"}); got != 0 {
		t.Errorf("bad arity = %d, want 0", got)
	}
}
