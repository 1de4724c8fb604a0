package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
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

	// A concurrent ask of the same fact must wait on the in-flight question,
	// not repeat it (§3.2), and must see the same answer.
	var second bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		second = c.verifyFact(context.Background(), fact)
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the in-flight wait
	close(oracle.release)
	if ans := <-done; !ans {
		t.Errorf("first verifyFact = false, want true")
	}
	wg.Wait()
	if !second {
		t.Errorf("waiting verifyFact = false, want the in-flight answer true")
	}
	if n := oracle.calls.Load(); n != 1 {
		t.Errorf("oracle asked %d times for one fact, want 1", n)
	}
	// And the answer is cached: no further oracle calls.
	if !c.verifyFact(context.Background(), fact) || oracle.calls.Load() != 1 {
		t.Errorf("cached fact re-asked")
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

// TestVerifyFactCancelledAskerDoesNotPoisonWaiter: a waiter behind a
// cancelled asker must re-ask for real rather than adopt the cancelled
// default answer.
func TestVerifyFactCancelledAskerDoesNotPoisonWaiter(t *testing.T) {
	d, _ := dataset.Figure1()
	oracle := &stallOracle{asked: make(chan struct{}, 8), release: make(chan struct{})}
	c := New(d, oracle, Config{})
	fact := db.NewFact("Teams", "ESP", "EU")

	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan bool, 1)
	go func() { done1 <- c.verifyFact(ctx1, fact) }()
	<-oracle.asked

	done2 := make(chan bool, 1)
	go func() { done2 <- c.verifyFact(context.Background(), fact) }()
	time.Sleep(10 * time.Millisecond) // waiter parks on the in-flight ask
	cancel1()
	<-done1
	// The waiter retries with its own live context: a second real question.
	<-oracle.asked
	close(oracle.release)
	if ans := <-done2; !ans {
		t.Errorf("retried verifyFact = false, want true")
	}
	if n := oracle.calls.Load(); n != 2 {
		t.Errorf("oracle asked %d times, want 2 (cancelled ask + real retry)", n)
	}
}
