package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
)

// TestBatchDeadlinesRunPerQuestion: in a batch only the first question is
// answered. Every other question re-asks and then degrades on its own clock,
// so the batch returns after about (maxReasks+1)·deadline, not n times that,
// and each of its answers is journaled exactly once.
func TestBatchDeadlinesRunPerQuestion(t *testing.T) {
	const (
		n         = 10
		deadline  = 50 * time.Millisecond
		maxReasks = 1
	)
	q := NewQueue()
	q.Obs = obs.New()
	q.SetDeadline(deadline, maxReasks)
	journal := &countingJournal{counts: make(map[string]int)}
	q.SetJournal(journal)

	ts := make([]db.Tuple, n)
	for i := range ts {
		ts[i] = db.Tuple{fmt.Sprintf("T%d", i)}
	}
	got := make(chan []bool, 1)
	start := time.Now()
	go func() { got <- q.VerifyAnswers(withJob(context.Background(), 1), dataset.IntroQ1(), ts) }()

	waitFor := time.Now().Add(5 * time.Second)
	for len(q.Pending()) < n {
		if time.Now().After(waitFor) {
			t.Fatalf("%d of %d batch questions pending", len(q.Pending()), n)
		}
		time.Sleep(time.Millisecond)
	}
	first := q.Pending()[0]
	no := false
	if err := q.Answer(first.ID, Answer{Bool: &no}); err != nil {
		t.Fatal(err)
	}

	var answers []bool
	select {
	case answers = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not return")
	}
	elapsed := time.Since(start)
	if answers[0] {
		t.Error("answered question read true, want the crowd's false")
	}
	for i, a := range answers[1:] {
		if !a {
			t.Errorf("degraded question %d read false, want the edit-free default true", i+1)
		}
	}
	// Serial deadlines would take n·(maxReasks+1)·deadline = 1 s.
	if limit := 5 * (maxReasks + 1) * deadline; elapsed > limit {
		t.Errorf("batch took %v, want about %v (each question on its own clock)", elapsed, (maxReasks+1)*deadline)
	}
	if got := q.DegradedAnswers(); got != n-1 {
		t.Errorf("degraded answers = %d, want %d", got, n-1)
	}
	if got := q.Obs.Counter(MetricQuestionsReasked); got != (n-1)*maxReasks {
		t.Errorf("re-asks = %d, want %d", got, (n-1)*maxReasks)
	}
	if got := q.Obs.Counter(MetricQuestionsExpired); got != n-1 {
		t.Errorf("expiries = %d, want %d", got, n-1)
	}
	if len(q.Pending()) != 0 {
		t.Errorf("questions still pending after the batch: %v", q.Pending())
	}
	journal.mu.Lock()
	defer journal.mu.Unlock()
	if len(journal.counts) != n {
		t.Errorf("journaled %d distinct answers, want %d", len(journal.counts), n)
	}
	for k, c := range journal.counts {
		if c != 1 {
			t.Errorf("%s journaled %d times", k, c)
		}
	}
}

// TestRoundPostedTogether: the first GET /api/v1/questions of a Soccer Q2
// job returns the whole first round, one TRUE(Q, t)? per answer of Q(D).
// Answering every poll in reverse ID order ends the job with the question
// counts and edit script of the in-order run.
func TestRoundPostedTogether(t *testing.T) {
	q := dataset.SoccerQ2()
	dg := dataset.Soccer(dataset.SoccerOpts{})
	d := soccerQ2Dirty(t, dg, 1)
	oracle := crowd.NewPerfect(dg)

	run := func(reverse bool) (*core.Report, []*Question) {
		srv := New(d.Clone(), core.Config{Incremental: true})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": q.String()})
		var job Job
		if err := json.NewDecoder(res.Body).Decode(&job); err != nil || res.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /api/v1/clean = %d (%v)", res.StatusCode, err)
		}
		res.Body.Close()
		var first []*Question
		deadline := time.Now().Add(30 * time.Second)
		for jobView(srv, job.ID).State == JobRunning {
			if time.Now().After(deadline) {
				t.Fatal("job did not finish")
			}
			res, err := http.Get(ts.URL + "/api/v1/questions")
			if err != nil {
				t.Fatal(err)
			}
			var pending []*Question
			err = json.NewDecoder(res.Body).Decode(&pending)
			res.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil && len(pending) > 0 {
				first = pending
			}
			for i := range pending {
				qu := pending[i]
				if reverse {
					qu = pending[len(pending)-1-i]
				}
				postJSON(t, fmt.Sprintf("%s/api/v1/questions/%d/answer", ts.URL, qu.ID), perfectAnswer(qu, oracle)).Body.Close()
			}
			if len(pending) == 0 {
				time.Sleep(200 * time.Microsecond)
			}
		}
		job = jobView(srv, job.ID)
		if job.State != JobDone || job.Report == nil {
			t.Fatalf("job ended %s (%s)", job.State, job.Error)
		}
		return job.Report, first
	}

	inOrder, first := run(false)
	if want := len(eval.Result(q, d, eval.NoCache())); len(first) != want {
		t.Errorf("first poll returned %d questions, want the whole round of %d", len(first), want)
	}
	for _, qu := range first {
		if qu.Kind != KindVerifyAnswer {
			t.Errorf("first poll holds a %s question, want only %s", qu.Kind, KindVerifyAnswer)
			break
		}
	}
	reversed, _ := run(true)
	if inOrder.Crowd != reversed.Crowd {
		t.Errorf("question counts depend on answer order: in order %+v, reversed %+v", inOrder.Crowd, reversed.Crowd)
	}
	if a, b := fmt.Sprint(inOrder.Edits), fmt.Sprint(reversed.Edits); a != b {
		t.Errorf("edit script depends on answer order:\n in order %s\n reversed %s", a, b)
	}
}

// BenchmarkServerJob runs the end-to-end benchmark's server-mixed job
// (Soccer Q2, 3 wrong and 3 missing answers, seed 1) on a 4-shard disk store
// with a job journal, answered in-process through the question queue by a
// perfect crowd. Set-up runs with the timer stopped.
func BenchmarkServerJob(b *testing.B) {
	q := dataset.SoccerQ2()
	dg := dataset.Soccer(dataset.SoccerOpts{})
	d := soccerQ2Dirty(b, dg, 1)
	oracle := crowd.NewPerfect(dg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, ds, jl := bootDiskServer(b, d, b.TempDir())
		b.StartTimer()

		job := srv.startJob(q, nil)
		for jobView(srv, job.ID).State == JobRunning {
			pending := srv.Queue().Pending()
			for _, qu := range pending {
				_ = srv.Queue().Answer(qu.ID, perfectAnswer(qu, oracle))
			}
			if len(pending) == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}

		b.StopTimer()
		if st := jobView(srv, job.ID).State; st != JobDone {
			b.Fatalf("job ended %s", st)
		}
		srv.Close()
		if err := jl.Close(); err != nil {
			b.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
