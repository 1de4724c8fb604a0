package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/wal"
)

// countingJournal records how often each (job, key) was journaled, to catch
// double-journaling under churn.
type countingJournal struct {
	mu     sync.Mutex
	counts map[string]int
}

func (j *countingJournal) RecordAnswers(job int, answers []wal.KeyedAnswer) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, a := range answers {
		j.counts[fmt.Sprintf("%d/%s", job, a.Key)]++
	}
}

// TestQueueChurnHammer batters the queue with everything at once — concurrent
// askers, crowd answerers racing each other, per-job cancellation, context
// cancellation, deadline expiry, and a final Close — under -race in CI. Every
// ask must return, no question may be successfully answered twice, each
// distinct question journals at most one answer, and no goroutines may leak.
func TestQueueChurnHammer(t *testing.T) {
	before := runtime.NumGoroutine()

	q := NewQueue()
	q.SetDeadline(3*time.Millisecond, 1)
	journal := &countingJournal{counts: make(map[string]int)}
	q.SetJournal(journal)

	const (
		askers      = 32
		asksEach    = 6
		jobs        = 5
		answerers   = 4
		cancellers  = 2
		hammerSleep = 200 * time.Microsecond
	)

	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := withJob(context.Background(), i%jobs+1)
			if i%3 == 0 {
				// A third of the askers get their context cancelled mid-flight.
				cctx, cancel := context.WithCancel(ctx)
				ctx = cctx
				go func() {
					time.Sleep(time.Duration(i) * hammerSleep)
					cancel()
				}()
			}
			for k := 0; k < asksEach; k++ {
				// Distinct facts per asker: each question content is unique, so
				// journal counts above 1 can only mean double-journaling.
				q.VerifyFact(ctx, db.NewFact("Teams", fmt.Sprintf("T%d-%d", i, k), "EU"))
			}
		}(i)
	}

	stop := make(chan struct{})
	var helpers sync.WaitGroup
	successes := struct {
		mu     sync.Mutex
		counts map[int]int
	}{counts: make(map[int]int)}
	for a := 0; a < answerers; a++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, qu := range q.Pending() {
					yes := true
					if err := q.Answer(qu.ID, Answer{Bool: &yes}); err == nil {
						successes.mu.Lock()
						successes.counts[qu.ID]++
						successes.mu.Unlock()
					}
				}
				time.Sleep(hammerSleep)
			}
		}()
	}
	for c := 0; c < cancellers; c++ {
		helpers.Add(1)
		go func(c int) {
			defer helpers.Done()
			job := 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				q.CancelJob(job%jobs + 1)
				job++
				time.Sleep(3 * hammerSleep)
			}
		}(c)
	}

	// Every asker must return despite the churn: answered, cancelled, or
	// degraded by the deadline — never stuck.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("askers stuck under churn")
	}
	close(stop)
	helpers.Wait()
	q.Close()

	successes.mu.Lock()
	for id, n := range successes.counts {
		if n != 1 {
			t.Errorf("question %d answered successfully %d times", id, n)
		}
	}
	successes.mu.Unlock()
	journal.mu.Lock()
	for key, n := range journal.counts {
		if n != 1 {
			t.Errorf("question %s journaled %d answers", key, n)
		}
	}
	journal.mu.Unlock()

	// No goroutine leaks: the count settles back to the baseline. Retry while
	// unblocked askers and helpers finish dying.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
