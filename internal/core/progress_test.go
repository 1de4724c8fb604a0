package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

// stallOracle blocks every VerifyFact and Complete until release is closed,
// counting the calls — a crowd member taking minutes over a question.
type stallOracle struct {
	asked   chan struct{} // one tick per VerifyFact or Complete arrival
	release chan struct{}
	calls   atomic.Int64
}

func (o *stallOracle) VerifyFact(ctx context.Context, f db.Fact) bool {
	o.stall(ctx)
	return true
}
func (o *stallOracle) VerifyAnswer(context.Context, *cq.Query, db.Tuple) bool { return true }
func (o *stallOracle) Complete(ctx context.Context, _ *cq.Query, _ eval.Assignment) (eval.Assignment, bool) {
	o.stall(ctx)
	return nil, false // nothing completes the assignment
}
func (o *stallOracle) CompleteResult(context.Context, *cq.Query, []db.Tuple) (db.Tuple, bool) {
	return nil, false
}

func (o *stallOracle) stall(ctx context.Context) {
	o.calls.Add(1)
	o.asked <- struct{}{}
	select {
	case <-o.release:
	case <-ctx.Done():
	}
}

// progressResponds fails the test unless Progress returns promptly.
func progressResponds(t *testing.T, c *Cleaner) {
	t.Helper()
	progressed := make(chan Progress, 1)
	go func() { progressed <- c.Progress() }()
	select {
	case <-progressed:
	case <-time.After(5 * time.Second):
		t.Fatal("Progress blocked behind a pending crowd question")
	}
}

// TestProgressNotBlockedByPendingQuestion: Progress (the server's job-status
// source) must stay responsive while a verify-fact or completion question is
// waiting on the crowd. Regression test — verifyFact and complete used to
// hold the cleaner mutex across the oracle call, hanging GET
// /api/v1/jobs/{id} for as long as a human took to answer.
func TestProgressNotBlockedByPendingQuestion(t *testing.T) {
	t.Run("verify-fact", testProgressDuringVerifyFact)
	t.Run("complete", testProgressDuringComplete)
}

func testProgressDuringVerifyFact(t *testing.T) {
	d, _ := dataset.Figure1()
	oracle := &stallOracle{asked: make(chan struct{}, 8), release: make(chan struct{})}
	c := New(d, oracle, Config{})
	fact := db.NewFact("Teams", "ESP", "EU")

	done := make(chan bool, 1)
	go func() { done <- c.verifyFact(context.Background(), fact) }()
	<-oracle.asked // the question is now at the (stalled) crowd
	progressResponds(t, c)

	close(oracle.release)
	if ans := <-done; !ans {
		t.Errorf("verifyFact = false, want true")
	}
	// The answer is cached: the same fact is never asked again (§3.2).
	if !c.verifyFact(context.Background(), fact) || oracle.calls.Load() != 1 {
		t.Errorf("cached fact re-asked (%d oracle calls)", oracle.calls.Load())
	}
}

func testProgressDuringComplete(t *testing.T) {
	d, _ := dataset.Figure1()
	oracle := &stallOracle{asked: make(chan struct{}, 8), release: make(chan struct{})}
	c := New(d, oracle, Config{})
	q := dataset.IntroQ1()
	seed := eval.Assignment{"x": "ITA"}

	done := make(chan bool, 1)
	go func() {
		_, ok := c.complete(context.Background(), q, seed)
		done <- ok
	}()
	<-oracle.asked // COMPL(α, Q) is now at the (stalled) crowd
	progressResponds(t, c)

	close(oracle.release)
	if ok := <-done; ok {
		t.Errorf("complete = true, want false (the crowd completed nothing)")
	}
	// The refusal is cached: the same completion is never asked again.
	if _, ok := c.complete(context.Background(), q, seed); ok || oracle.calls.Load() != 1 {
		t.Errorf("unsatisfiable completion re-asked (%d oracle calls)", oracle.calls.Load())
	}
}

// TestVerifyFactCancelledAskNotCached: a cancelled ask yields the edit-free
// default, which must stay out of the never-repeat caches, so a later ask of
// the same fact under a live context reaches the crowd.
func TestVerifyFactCancelledAskNotCached(t *testing.T) {
	d, _ := dataset.Figure1()
	oracle := &stallOracle{asked: make(chan struct{}, 8), release: make(chan struct{})}
	close(oracle.release)
	c := New(d, oracle, Config{})
	fact := db.NewFact("Teams", "ESP", "EU")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	c.verifyFact(cancelled, fact)
	if !c.verifyFact(context.Background(), fact) {
		t.Errorf("live verifyFact = false, want true")
	}
	if n := oracle.calls.Load(); n != 2 {
		t.Errorf("oracle asked %d times, want 2 (cancelled ask + live ask)", n)
	}
}

// stallFirstAnswer stalls the first TRUE(Q, t)? until the run is cancelled,
// as a crowd member who never answers before the job is cancelled, and
// counts the TRUE(Q, t)? calls. Other questions go to the embedded oracle.
type stallFirstAnswer struct {
	crowd.Oracle
	cancel context.CancelFunc
	calls  int
}

func (o *stallFirstAnswer) VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) bool {
	o.calls++
	if o.calls == 1 {
		o.cancel()
		<-ctx.Done()
		return true // the edit-free default
	}
	return o.Oracle.VerifyAnswer(ctx, q, t)
}

// TestCancelledVerificationRoundStopsAsking: once the run's context is
// cancelled during a verification round, no further TRUE(Q, t)? is asked,
// so neither the oracle nor Report.Crowd sees a question the crowd never
// got. Figure 1's Q1 opens with two unverified answers, (ESP) and (GER).
func TestCancelledVerificationRoundStopsAsking(t *testing.T) {
	d, dg := dataset.Figure1()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	oracle := &stallFirstAnswer{Oracle: crowd.NewPerfect(dg), cancel: cancel}
	rep, err := New(d, oracle, Config{}).Clean(ctx, dataset.IntroQ1())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Clean err = %v, want context.Canceled", err)
	}
	if oracle.calls != 1 || rep.Crowd.VerifyAnswerQs != 1 {
		t.Errorf("cancelled round: %d oracle calls, VerifyAnswerQs = %d; want 1 and 1",
			oracle.calls, rep.Crowd.VerifyAnswerQs)
	}
	if len(rep.Edits) != 0 {
		t.Errorf("cancelled round applied edits: %v", rep.Edits)
	}
}
