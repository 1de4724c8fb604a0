package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/split"
)

// TestAddMissingAnswerPirloProvenance reproduces Example 5.4 end to end: with
// the provenance split, adding (Pirlo) to Q2(D) requires zero variables from
// the crowd — the α1 assignment is total, the crowd only affirms it — and the
// single insertion Teams(ITA, EU)+.
func TestAddMissingAnswerPirloProvenance(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{Split: split.Provenance{}})
	q := dataset.IntroQ2()

	edits, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"Andrea Pirlo"})
	if err != nil {
		t.Fatalf("AddMissingAnswer: %v", err)
	}
	if !eval.AnswerHolds(q, d, db.Tuple{"Andrea Pirlo"}) {
		t.Fatalf("(Pirlo) still missing from Q2(D)")
	}
	if len(edits) != 1 || !edits[0].Fact.Equal(db.NewFact("Teams", "ITA", "EU")) {
		t.Errorf("edits = %v, want exactly Teams(ITA, EU)+", edits)
	}
	if got := c.Stats().VariablesFilled; got != 0 {
		t.Errorf("VariablesFilled = %d, want 0 (α1 was already total)", got)
	}
}

// TestAddMissingAnswerNaive: the Naive strategy skips splitting and asks the
// crowd for the entire witness — all 6 variables of Q2|Pirlo.
func TestAddMissingAnswerNaive(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{Split: split.Naive{}})
	q := dataset.IntroQ2()

	if _, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"Andrea Pirlo"}); err != nil {
		t.Fatalf("AddMissingAnswer: %v", err)
	}
	if !eval.AnswerHolds(q, d, db.Tuple{"Andrea Pirlo"}) {
		t.Fatalf("(Pirlo) still missing")
	}
	if got := c.Stats().VariablesFilled; got != 6 {
		t.Errorf("VariablesFilled = %d, want 6 (naive completes everything)", got)
	}
}

// TestSplitStrategiesAllInsert: every strategy ends with the answer present
// and only true facts inserted; split-based strategies never cost more
// variables than Naive (the Figure 3b ordering).
func TestSplitStrategiesAllInsert(t *testing.T) {
	q := dataset.IntroQ2()
	naiveCost := -1
	strategies := []split.Strategy{
		split.Naive{},
		split.Provenance{},
		split.MinCut{},
		split.NewRandom(rand.New(rand.NewSource(5))),
	}
	for _, s := range strategies {
		t.Run(s.Name(), func(t *testing.T) {
			d, dg := dataset.Figure1()
			c := New(d, crowd.NewPerfect(dg), Config{Split: s})
			edits, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"Andrea Pirlo"})
			if err != nil {
				t.Fatalf("AddMissingAnswer: %v", err)
			}
			if !eval.AnswerHolds(q, d, db.Tuple{"Andrea Pirlo"}) {
				t.Fatalf("answer still missing")
			}
			for _, e := range edits {
				if e.Op != db.Insert {
					t.Errorf("unexpected deletion %v", e)
				}
				if !dg.Has(e.Fact) {
					t.Errorf("inserted false fact %v", e.Fact)
				}
			}
			cost := c.Stats().VariablesFilled
			if s.Name() == "Naive" {
				naiveCost = cost
			} else if naiveCost >= 0 && cost > naiveCost {
				t.Errorf("%s filled %d variables, more than Naive's %d", s.Name(), cost, naiveCost)
			}
		})
	}
}

// TestAddMissingAnswerGroundAtomSeeding: all-constant atoms of Q|t are
// inserted without crowd questions (Algorithm 2 line 1).
func TestAddMissingAnswerGroundAtomSeeding(t *testing.T) {
	d, dg := dataset.Figure1()
	// ITA into Q1: Q1|ITA contains the ground atom Teams(ITA, EU).
	c := New(d, crowd.NewPerfect(dg), Config{Split: split.Provenance{}})
	q := dataset.IntroQ1()
	edits, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"ITA"})
	if err != nil {
		t.Fatalf("AddMissingAnswer: %v", err)
	}
	if !eval.AnswerHolds(q, d, db.Tuple{"ITA"}) {
		t.Fatalf("(ITA) still missing from Q1(D)")
	}
	// Teams(ITA, EU) must be the only edit: both Italian final wins are
	// already in D, so after ground seeding Q1|ITA holds.
	if len(edits) != 1 || !edits[0].Fact.Equal(db.NewFact("Teams", "ITA", "EU")) {
		t.Errorf("edits = %v, want exactly Teams(ITA, EU)+", edits)
	}
	if got := c.Stats(); got.VariablesFilled != 0 || got.VerifyFactQs != 0 {
		t.Errorf("stats = %+v, want zero crowd work (pure ground seeding)", got)
	}
}

// TestAddMissingAnswerAlreadyPresent: adding an answer that already holds is
// a cheap no-op beyond ground seeding.
func TestAddMissingAnswerAlreadyPresent(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{})
	q := dataset.IntroQ1()
	edits, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"GER"})
	if err != nil {
		t.Fatalf("AddMissingAnswer: %v", err)
	}
	for _, e := range edits {
		if !dg.Has(e.Fact) {
			t.Errorf("inserted false fact %v", e.Fact)
		}
	}
	if got := c.Stats().VariablesFilled; got != 0 {
		t.Errorf("VariablesFilled = %d, want 0", got)
	}
}

// TestAddMissingAnswerNotAnAnswer: a tuple that is no answer over DG cannot
// be witnessed; the cleaner reports ErrCannotComplete.
func TestAddMissingAnswerNotAnAnswer(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{Split: split.Naive{}})
	q := dataset.IntroQ1()
	_, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"NED"}) // NED never won
	if !errors.Is(err, ErrCannotComplete) {
		t.Errorf("err = %v, want ErrCannotComplete", err)
	}
}

// TestAddMissingAnswerBadArity: an answer of the wrong arity is an error.
func TestAddMissingAnswerBadArity(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{})
	if _, err := c.AddMissingAnswer(context.Background(), dataset.IntroQ1(), db.Tuple{"a", "b"}); err == nil {
		t.Errorf("want error for arity mismatch")
	}
}

// TestUnsatCacheAvoidsRepeatCompletions: asking to add two missing answers
// with overlapping hopeless partials does not repeat COMPL questions.
func TestUnsatCacheAvoidsRepeatCompletions(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{Split: split.Provenance{}})
	q := dataset.IntroQ2()
	if _, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"Andrea Pirlo"}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().CompleteQs
	// Re-adding the same (now present) answer must not pose new completions.
	if _, err := c.AddMissingAnswer(context.Background(), q, db.Tuple{"Andrea Pirlo"}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().CompleteQs != before {
		t.Errorf("repeat insertion posed %d extra completions", c.Stats().CompleteQs-before)
	}
}

// cancelOnFirstFact cancels the run on its first TRUE(R(ā))? and answers it,
// as every later one, with the edit-free default true: a crowd whose job was
// cancelled while the question waited. It counts the TRUE(R(ā))? calls.
// Other questions go to the embedded oracle.
type cancelOnFirstFact struct {
	crowd.Oracle
	cancel context.CancelFunc
	calls  int
}

func (o *cancelOnFirstFact) VerifyFact(context.Context, db.Fact) bool {
	o.calls++
	o.cancel()
	return true
}

// TestCancelledWitnessCheckInsertsNothing: Algorithm 2 verifies a subquery
// assignment's grounded facts before inserting its witness. When the job is
// cancelled during that check, the default true is no answer: nothing may
// be inserted, so S(1), absent from DG, stays out of D (Prop 3.3), and S(1)
// is never asked.
func TestCancelledWitnessCheckInsertsNothing(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"a"}},
	)
	d, dg := db.New(s), db.New(s)
	d.InsertFact(db.NewFact("R", "v", "1"))
	dg.InsertFact(db.NewFact("R", "v", "1"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oracle := &cancelOnFirstFact{Oracle: crowd.NewPerfect(dg), cancel: cancel}
	c := New(d, oracle, Config{})

	edits, err := c.AddMissingAnswer(ctx, mustQuery(t, "(x) :- R(x, y), S(y)"), db.Tuple{"v"})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("AddMissingAnswer err = %v, want context.Canceled", err)
	}
	if len(edits) != 0 || d.Has(db.NewFact("S", "1")) {
		t.Errorf("cancelled job applied edits %v", edits)
	}
	if oracle.calls != 1 {
		t.Errorf("TRUE(R(ā))? asked %d times, want 1 (nothing after the cancel)", oracle.calls)
	}
	if n := c.Stats().VerifyFactQs; n != 1 {
		t.Errorf("VerifyFactQs = %d, want 1", n)
	}
}

// TestCancelledBlockerCheckDeletesNothing: a witness's blocking fact is
// deleted only once the crowd says it is false. When the job is cancelled
// during that question, Banned(v) stays in D.
func TestCancelledBlockerCheckDeletesNothing(t *testing.T) {
	d, dg := db.New(negCleanSchema()), db.New(negCleanSchema())
	d.InsertFact(db.NewFact("R", "v", "1"))
	d.InsertFact(db.NewFact("Banned", "v"))
	dg.InsertFact(db.NewFact("R", "v", "1"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oracle := &cancelOnFirstFact{Oracle: crowd.NewPerfect(dg), cancel: cancel}
	c := New(d, oracle, Config{})

	edits, err := c.AddMissingAnswer(ctx, mustQuery(t, "(x) :- R(x, y), not Banned(x)"), db.Tuple{"v"})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("AddMissingAnswer err = %v, want context.Canceled", err)
	}
	if len(edits) != 0 || !d.Has(db.NewFact("Banned", "v")) {
		t.Errorf("cancelled job applied edits %v", edits)
	}
	if oracle.calls != 1 {
		t.Errorf("TRUE(R(ā))? asked %d times, want 1", oracle.calls)
	}
}
