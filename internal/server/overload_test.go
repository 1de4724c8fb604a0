package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/wal"
)

// v1Envelope is the versioned error envelope for decoding in tests.
type v1Envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// overloadServer builds a Figure-1 server with an admission controller and a
// short question deadline, so jobs finish (degraded) without a crowd.
func overloadServer(t *testing.T, opts admission.Options) (*Server, *httptest.Server) {
	t.Helper()
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	opts.Obs = srv.Obs()
	srv.SetAdmission(admission.NewController(opts))
	srv.Queue().SetDeadline(2*time.Millisecond, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// retryAfterSeconds parses the Retry-After header, failing if absent or bad.
func retryAfterSeconds(t *testing.T, res *http.Response) int {
	t.Helper()
	h := res.Header.Get("Retry-After")
	if h == "" {
		t.Fatalf("rejection has no Retry-After header")
	}
	secs, err := strconv.Atoi(h)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", h, err)
	}
	return secs
}

func waitJobsIdle(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.ActiveJobs() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d job(s) never finished", srv.ActiveJobs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRateLimitRejection drives the global rate limit: the second submission
// must get 429 with the v1 envelope and a Retry-After hint, and the rejection
// must show up in /api/v1/metrics.
func TestRateLimitRejection(t *testing.T) {
	srv, ts := overloadServer(t, admission.Options{Rate: 0.0001, Burst: 1})

	body := map[string]string{"query": dataset.IntroQ1().String()}
	res := postJSON(t, ts.URL+"/api/v1/clean", body)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission status = %d, want 202", res.StatusCode)
	}

	res = postJSON(t, ts.URL+"/api/v1/clean", body)
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission status = %d, want 429", res.StatusCode)
	}
	if secs := retryAfterSeconds(t, res); secs < 1 {
		t.Errorf("Retry-After = %d, want >= 1", secs)
	}
	var env v1Envelope
	if err := json.NewDecoder(res.Body).Decode(&env); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if env.Error.Code != admission.CodeRateLimited {
		t.Errorf("code = %q, want %q", env.Error.Code, admission.CodeRateLimited)
	}
	if env.Error.Message == "" {
		t.Errorf("envelope has no message")
	}

	// The rejections are observable.
	mres, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	var metrics map[string]interface{}
	if err := json.NewDecoder(mres.Body).Decode(&metrics); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	counter := func(name string) float64 {
		v, _ := metrics[name].(float64)
		return v
	}
	if counter(admission.MetricAdmitted) < 1 {
		t.Errorf("metric %s = %v, want >= 1", admission.MetricAdmitted, metrics[admission.MetricAdmitted])
	}
	if counter(admission.MetricRejectedRate) < 1 {
		t.Errorf("metric %s = %v, want >= 1", admission.MetricRejectedRate, metrics[admission.MetricRejectedRate])
	}
	waitJobsIdle(t, srv)
}

// TestQueueTimeoutAndRelease saturates a 1-slot server: the second submission
// waits in the admission queue, times out with 503, and once the running job
// is cancelled the freed slot admits new work.
func TestQueueTimeoutAndRelease(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	srv.SetAdmission(admission.NewController(admission.Options{
		MaxConcurrent: 1,
		QueueTimeout:  40 * time.Millisecond,
		Obs:           srv.Obs(),
	}))
	// No question deadline: the first job blocks on its first crowd question
	// and pins the only slot.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := map[string]string{"query": dataset.IntroQ1().String()}
	res := postJSON(t, ts.URL+"/api/v1/clean", body)
	var job Job
	json.NewDecoder(res.Body).Decode(&job)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission = %d, want 202", res.StatusCode)
	}

	start := time.Now()
	res = postJSON(t, ts.URL+"/api/v1/clean", body)
	var env v1Envelope
	json.NewDecoder(res.Body).Decode(&env)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || env.Error.Code != admission.CodeQueueTimeout {
		t.Fatalf("queued submission = %d/%q, want 503/%q", res.StatusCode, env.Error.Code, admission.CodeQueueTimeout)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("rejected after %v, want the submission to wait out the queue timeout", waited)
	}
	retryAfterSeconds(t, res)

	// Cancelling the running job frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID), nil)
	dres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dres.Body.Close()
	waitJobsIdle(t, srv)

	res = postJSON(t, ts.URL+"/api/v1/clean", body)
	var job2 Job
	json.NewDecoder(res.Body).Decode(&job2)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submission = %d, want 202 (slot not released?)", res.StatusCode)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job2.ID), nil)
	if dres, err := http.DefaultClient.Do(delReq); err == nil {
		dres.Body.Close()
	}
	waitJobsIdle(t, srv)
}

// readyzState fetches /readyz and returns the status code and per-check
// detail.
func readyzState(t *testing.T, base string) (int, map[string]string) {
	t.Helper()
	res, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body struct {
		Ready  bool              `json:"ready"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatalf("decoding /readyz: %v", err)
	}
	return res.StatusCode, body.Checks
}

// TestDrainLifecycle: drain flips /readyz to 503 and sheds new submissions
// with 503/draining, liveness stays 200 throughout, and Resume restores
// service.
func TestDrainLifecycle(t *testing.T) {
	srv, ts := overloadServer(t, admission.Options{})

	if code, _ := readyzState(t, ts.URL); code != http.StatusOK {
		t.Fatalf("initial /readyz = %d, want 200", code)
	}

	srv.Drain()
	code, checks := readyzState(t, ts.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", code)
	}
	if checks["drain"] == "ok" {
		t.Errorf("drain check = ok while draining; checks = %v", checks)
	}

	body := map[string]string{"query": dataset.IntroQ1().String()}
	res := postJSON(t, ts.URL+"/api/v1/clean", body)
	var env v1Envelope
	json.NewDecoder(res.Body).Decode(&env)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || env.Error.Code != admission.CodeDraining {
		t.Fatalf("draining submission = %d/%q, want 503/%q", res.StatusCode, env.Error.Code, admission.CodeDraining)
	}
	retryAfterSeconds(t, res)

	// Liveness is unaffected: a draining process must not be restarted.
	lres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	lres.Body.Close()
	if lres.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", lres.StatusCode)
	}

	resume(srv)
	if code, _ := readyzState(t, ts.URL); code != http.StatusOK {
		t.Fatalf("post-resume /readyz = %d, want 200", code)
	}
	res = postJSON(t, ts.URL+"/api/v1/clean", body)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("post-resume submission = %d, want 202", res.StatusCode)
	}
	waitJobsIdle(t, srv)
}

// TestDrainWait: DrainWait times out while a job runs and returns promptly
// once the last job reaches a terminal state.
func TestDrainWait(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
	var job Job
	json.NewDecoder(res.Body).Decode(&job)
	res.Body.Close()

	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.DrainWait(ctx); err == nil {
		t.Fatalf("DrainWait returned nil with a job still blocked on the crowd")
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID), nil)
	if dres, err := http.DefaultClient.Do(req); err == nil {
		dres.Body.Close()
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.DrainWait(ctx2); err != nil {
		t.Fatalf("DrainWait after cancel: %v", err)
	}
}

// TestReadyzStickyJournal: a failing job journal flips readiness, and
// installing a fresh journal restores it.
func TestReadyzStickyJournal(t *testing.T) {
	srv, ts := overloadServer(t, admission.Options{})
	dir := t.TempDir()

	jl, _, err := wal.OpenJobLog(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetJobLog(jl)
	if code, _ := readyzState(t, ts.URL); code != http.StatusOK {
		t.Fatalf("/readyz with healthy journal = %d, want 200", code)
	}

	// Close the file out from under the log; the next append fails and the
	// error is sticky — the disk-full / volume-detached failure mode.
	jl.Close()
	_ = jl.Start(999, "q(x) :- R(x)")
	code, checks := readyzState(t, ts.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with sticky journal error = %d, want 503 (checks %v)", code, checks)
	}
	if checks["journal"] == "ok" {
		t.Errorf("journal check = ok despite sticky error; checks = %v", checks)
	}

	// Operator replaces the journal (new volume): ready again.
	fresh, _, err := wal.OpenJobLog(filepath.Join(dir, "jobs2.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	srv.SetJobLog(fresh)
	if code, _ := readyzState(t, ts.URL); code != http.StatusOK {
		t.Fatalf("/readyz after journal replacement = %d, want 200", code)
	}
}

// TestShedSubmissionNeverJournaled: a rate-limited submission must leave no
// trace in the job journal — on recovery only admitted jobs exist.
func TestShedSubmissionNeverJournaled(t *testing.T) {
	srv, ts := overloadServer(t, admission.Options{Rate: 0.0001, Burst: 1})
	path := filepath.Join(t.TempDir(), "jobs.wal")
	jl, _, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetJobLog(jl)

	body := map[string]string{"query": dataset.IntroQ1().String()}
	res := postJSON(t, ts.URL+"/api/v1/clean", body)
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission = %d, want 202", res.StatusCode)
	}
	res = postJSON(t, ts.URL+"/api/v1/clean", body)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission = %d, want 429", res.StatusCode)
	}
	waitJobsIdle(t, srv)
	if err := jl.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}

	_, records, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("journal has %d job(s), want exactly the 1 admitted job: %+v", len(records), records)
	}
}

// TestRepairJobAdmission: view repair submissions pass the same admission
// layer as full cleans.
func TestRepairJobAdmission(t *testing.T) {
	srv, ts := overloadServer(t, admission.Options{Rate: 0.0001, Burst: 1})

	vres := postJSON(t, ts.URL+"/api/v1/views", map[string]string{
		"name": "eu", "query": dataset.IntroQ1().String(),
	})
	vres.Body.Close()
	if vres.StatusCode != http.StatusCreated {
		t.Fatalf("registering view = %d, want 201", vres.StatusCode)
	}

	res := postJSON(t, ts.URL+"/api/v1/views/eu/wrong", map[string][]string{"tuple": {"ESP"}})
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("first repair = %d, want 202", res.StatusCode)
	}
	res = postJSON(t, ts.URL+"/api/v1/views/eu/wrong", map[string][]string{"tuple": {"ESP"}})
	var env v1Envelope
	json.NewDecoder(res.Body).Decode(&env)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests || env.Error.Code != admission.CodeRateLimited {
		t.Fatalf("second repair = %d/%q, want 429/%q", res.StatusCode, env.Error.Code, admission.CodeRateLimited)
	}
	retryAfterSeconds(t, res)
	waitJobsIdle(t, srv)
}

// TestQuestionHistoryRing: resolved questions land in a bounded ring served
// at /api/v1/questions/log, capped regardless of lifetime traffic.
func TestQuestionHistoryRing(t *testing.T) {
	q := NewQueue()
	q.SetHistoryLimit(4)
	yes := true
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 7; i++ {
			q.VerifyFact(context.Background(), db.NewFact("R", fmt.Sprint(i)))
		}
	}()
	answered := 0
	deadline := time.Now().Add(5 * time.Second)
	for answered < 7 {
		if time.Now().After(deadline) {
			t.Fatalf("answered only %d questions", answered)
		}
		for _, qu := range q.Pending() {
			if err := q.Answer(qu.ID, Answer{Bool: &yes}); err == nil {
				answered++
			}
		}
		time.Sleep(time.Millisecond)
	}
	<-done

	hist := q.History()
	if len(hist) != 4 {
		t.Fatalf("history holds %d events, want ring cap 4", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].ID <= hist[i-1].ID {
			t.Errorf("history out of order: %d after %d", hist[i].ID, hist[i-1].ID)
		}
	}
	for _, ev := range hist {
		if ev.Outcome != "answered" || ev.Kind != KindVerifyFact || ev.Resolved.IsZero() {
			t.Errorf("bad history event: %+v", ev)
		}
	}

	// Shrink keeps the newest; 0 disables.
	q.SetHistoryLimit(2)
	if h := q.History(); len(h) != 2 || h[1].ID != hist[3].ID {
		t.Errorf("after shrink History = %+v, want newest 2 of %+v", h, hist)
	}
	q.SetHistoryLimit(0)
	if h := q.History(); len(h) != 0 {
		t.Errorf("after SetHistoryLimit(0) History = %+v, want empty", h)
	}
}

// TestQuestionLogEndpoint: the history ring is served over the v1 API, and a
// degraded question reports its outcome.
func TestQuestionLogEndpoint(t *testing.T) {
	srv, ts := overloadServer(t, admission.Options{})

	res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
	res.Body.Close()
	waitJobsIdle(t, srv)

	lres, err := http.Get(ts.URL + "/api/v1/questions/log")
	if err != nil {
		t.Fatal(err)
	}
	defer lres.Body.Close()
	if lres.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/questions/log = %d", lres.StatusCode)
	}
	var events []QuestionEvent
	if err := json.NewDecoder(lres.Body).Decode(&events); err != nil {
		t.Fatalf("decoding question log: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("question log empty after a degraded job")
	}
	for _, ev := range events {
		if ev.Outcome != "degraded" {
			t.Errorf("outcome = %q, want degraded (2ms deadline, no crowd): %+v", ev.Outcome, ev)
		}
	}
}

// resume lifts drain mode, which the server itself never does.
func resume(s *Server) {
	s.mu.Lock()
	s.draining = false
	ctrl := s.admit
	s.mu.Unlock()
	if ctrl != nil {
		ctrl.SetDraining(false)
	}
}
