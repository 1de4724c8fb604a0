package server

import (
	"bytes"
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
)

// v1Crowd is a simulated crowd member that polls the question API and
// answers from the ground truth — the full HTTP round trip a human takes
// through the crowd console.
type v1Crowd struct {
	base   string
	oracle *crowd.Perfect
	stop   chan struct{}
}

func (c *v1Crowd) run() {
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		res, err := http.Get(c.base + "/api/v1/questions")
		if err != nil {
			return
		}
		var qs []Question
		err = json.NewDecoder(res.Body).Decode(&qs)
		res.Body.Close()
		if err != nil {
			return
		}
		if len(qs) == 0 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for i := range qs {
			q := &qs[i]
			a := perfectAnswer(q, c.oracle)
			body, _ := json.Marshal(a)
			res, err := http.Post(fmt.Sprintf("%s/api/v1/questions/%d/answer", c.base, q.ID), "application/json", bytes.NewReader(body))
			if err == nil {
				res.Body.Close()
			}
		}
	}
}

// decodeBody decodes a JSON response body into v and closes it.
func decodeBody(t *testing.T, res *http.Response, v interface{}) {
	t.Helper()
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", res.Request.URL, err)
	}
}

// envelope is the v1 error shape.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// TestV1JobLifecycle runs a full cleaning job through the versioned API: the
// job converges to the ground truth, the job view carries the report with
// timings, and the jobs index lists it.
func TestV1JobLifecycle(t *testing.T) {
	d, dg := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	member := &v1Crowd{base: ts.URL, oracle: crowd.NewPerfect(dg), stop: make(chan struct{})}
	go member.run()
	defer close(member.stop)

	res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/v1/clean status = %d", res.StatusCode)
	}
	var job Job
	decodeBody(t, res, &job)
	if job.State != JobRunning {
		t.Fatalf("new job state = %q", job.State)
	}

	var final jobStatus
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %d did not finish", job.ID)
		}
		r, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, r, &final)
		if final.State == JobDone {
			break
		}
		if final.State == JobFailed {
			t.Fatalf("job failed: %s", final.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Report == nil || final.Report.WrongAnswers != 1 || final.Report.MissingAnswers != 1 {
		t.Fatalf("report = %+v", final.Report)
	}
	if final.Report.Timings.Total <= 0 {
		t.Errorf("report timings not recorded: %+v", final.Report.Timings)
	}
	want := eval.Result(dataset.IntroQ1(), dg)
	got := eval.Result(dataset.IntroQ1(), d)
	if len(got) != len(want) {
		t.Fatalf("cleaned result %v, want %v", got, want)
	}

	var jobs []Job
	r, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, r, &jobs)
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Errorf("jobs index = %+v, want the one job", jobs)
	}
}

// TestV1MetricsLiveDuringJob: with no crowd member answering, a running job
// must still be observable — the metrics endpoint shows its questions and the
// job view shows live progress and the pending question IDs.
func TestV1MetricsLiveDuringJob(t *testing.T) {
	d, dg := dataset.Figure1()
	_ = dg
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
	var job Job
	decodeBody(t, res, &job)

	// Wait until the job blocks on its first crowd question.
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Queue().Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never asked a question")
		}
		time.Sleep(time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("metrics content type = %q", ct)
	}
	var flat map[string]interface{}
	decodeBody(t, r, &flat)
	if flat[MetricJobsStarted] != float64(1) {
		t.Errorf("%s = %v, want 1", MetricJobsStarted, flat[MetricJobsStarted])
	}
	if v, ok := flat[MetricPendingQuestions].(float64); !ok || v < 1 {
		t.Errorf("%s = %v, want >= 1", MetricPendingQuestions, flat[MetricPendingQuestions])
	}
	if v, ok := flat[crowd.MetricVerifyAnswer].(float64); !ok || v < 1 {
		t.Errorf("%s = %v, want >= 1 while the job runs", crowd.MetricVerifyAnswer, flat[crowd.MetricVerifyAnswer])
	}

	rj, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	var status jobStatus
	decodeBody(t, rj, &status)
	if status.State != JobRunning {
		t.Fatalf("job state = %q, want running", status.State)
	}
	if status.Progress == nil || status.Progress.Iteration < 1 {
		t.Errorf("progress = %+v, want iteration >= 1", status.Progress)
	}
	if status.Progress != nil && status.Progress.Crowd.VerifyAnswerQs < 1 {
		t.Errorf("progress crowd stats = %+v, want VerifyAnswerQs >= 1", status.Progress.Crowd)
	}
	if len(status.PendingQuestions) == 0 {
		t.Errorf("pending questions empty; the job is blocked on one")
	}

	// Unblock the run so the server can shut down promptly.
	res2, err := newRequest(t, http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
}

// newRequest issues a bodyless request with the given method.
func newRequest(t *testing.T, method, url string, body []byte) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return http.DefaultClient.Do(req)
}

// TestV1CancelMidQuestion: cancelling a job that is blocked on a crowd
// question must release the question within the DELETE request cycle and
// leave the job cancelled with no database edits.
func TestV1CancelMidQuestion(t *testing.T) {
	d, _ := dataset.Figure1()
	before := d.Len()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
	var job Job
	decodeBody(t, res, &job)

	deadline := time.Now().Add(10 * time.Second)
	for len(srv.Queue().Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never asked a question")
		}
		time.Sleep(time.Millisecond)
	}

	dres, err := newRequest(t, http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	if dres.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", dres.StatusCode)
	}
	var cancelled Job
	decodeBody(t, dres, &cancelled)
	if cancelled.State != JobCancelled {
		t.Errorf("state after DELETE = %q, want cancelled", cancelled.State)
	}
	// The pending question was answered (edit-free) by the DELETE itself, not
	// left for a later context check.
	if got := srv.Queue().PendingFor(job.ID); len(got) != 0 {
		t.Errorf("job still has pending questions after DELETE: %v", got)
	}

	// The run unwinds and the state stays cancelled.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never unwound")
		}
		r, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		var cur jobStatus
		decodeBody(t, r, &cur)
		if cur.State != JobCancelled {
			t.Fatalf("state = %q, want cancelled", cur.State)
		}
		if cur.Report != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d.Len() != before {
		t.Errorf("cancelled job edited the database: %d -> %d tuples", before, d.Len())
	}

	// A second DELETE conflicts: the job is no longer running.
	dres2, err := newRequest(t, http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, job.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	decodeBody(t, dres2, &env)
	if dres2.StatusCode != http.StatusConflict || env.Error.Code != "conflict" {
		t.Errorf("second DELETE = %d %q, want 409 conflict", dres2.StatusCode, env.Error.Code)
	}
}

// TestV1ErrorEnvelope: every v1 error wears {"error":{"code","message"}}.
func TestV1ErrorEnvelope(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		body         interface{}
		wantStatus   int
		wantCode     string
	}{
		{"POST", "/api/v1/clean", map[string]string{}, http.StatusBadRequest, "bad_request"},
		{"POST", "/api/v1/clean", map[string]string{"sql": "SELECT FROM WHERE"}, http.StatusBadRequest, "bad_request"},
		{"POST", "/api/v1/clean", map[string]string{"query": "not a query"}, http.StatusBadRequest, "bad_request"},
		{"GET", "/api/v1/jobs/999", nil, http.StatusNotFound, "not_found"},
		{"GET", "/api/v1/jobs/abc", nil, http.StatusBadRequest, "bad_request"},
		{"DELETE", "/api/v1/jobs/999", nil, http.StatusNotFound, "not_found"},
		{"POST", "/api/v1/questions/999/answer", Answer{None: true}, http.StatusNotFound, "not_found"},
		{"POST", "/api/v1/questions/999/answer", Answer{Tuple: []string{"a\x1fb"}}, http.StatusBadRequest, "bad_request"},
		{"POST", "/api/v1/questions/999/answer", Answer{Bindings: map[string]string{"x": "\x1e"}}, http.StatusBadRequest, "bad_request"},
		{"GET", "/api/v1/query", nil, http.StatusBadRequest, "bad_request"},
		{"GET", "/api/v1/views/nope", nil, http.StatusNotFound, "not_found"},
		{"GET", "/api/v1/nope", nil, http.StatusNotFound, "not_found"},
		{"DELETE", "/api/v1/questions", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"GET", "/api/v1/clean", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"POST", "/api/v1/metrics", nil, http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, c := range cases {
		var raw []byte
		if c.body != nil {
			raw, _ = json.Marshal(c.body)
		}
		res, err := newRequest(t, c.method, ts.URL+c.path, raw)
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		decodeBody(t, res, &env)
		if res.StatusCode != c.wantStatus || env.Error.Code != c.wantCode {
			t.Errorf("%s %s: got %d %q, want %d %q (message %q)",
				c.method, c.path, res.StatusCode, env.Error.Code, c.wantStatus, c.wantCode, env.Error.Message)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", c.method, c.path)
		}
	}
}

// TestQueueAskHonorsContext: an oracle call under an already-cancelled
// context returns the edit-free default immediately and leaves no pending
// question behind.
func TestQueueAskHonorsContext(t *testing.T) {
	q := NewQueue()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- q.VerifyFact(ctx, db.NewFact("Teams", "GER", "EU")) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(q.Pending()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("question never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case v := <-done:
		if !v {
			t.Errorf("cancelled VerifyFact = false, want the edit-free default true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("VerifyFact did not unblock on cancel")
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(q.Pending()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled question still pending: %v", q.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}
