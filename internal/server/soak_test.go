package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/wal"
)

// faultSeeds returns the soak's seed matrix: QOCO_FAULT_SEED (a
// comma-separated list) when set — CI runs one soak per seed — otherwise a
// fixed default matrix.
func faultSeeds(t *testing.T) []int64 {
	env := os.Getenv("QOCO_FAULT_SEED")
	if env == "" {
		return []int64{1, 7, 42}
	}
	var seeds []int64
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("bad QOCO_FAULT_SEED entry %q: %v", part, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// submitResult is one submission's outcome as seen by the client.
type submitResult struct {
	status     int
	jobID      int
	retryAfter string
	code       string
}

// submitClean posts IntroQ1 to /api/v1/clean through the handler directly (no
// sockets, so thousands of concurrent submissions stay cheap) and reports the
// outcome.
func submitClean(h http.Handler) submitResult {
	raw, _ := json.Marshal(map[string]string{"query": dataset.IntroQ1().String()})
	req := httptest.NewRequest(http.MethodPost, "/api/v1/clean", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := submitResult{status: rec.Code, retryAfter: rec.Header().Get("Retry-After")}
	if rec.Code == http.StatusAccepted {
		var job Job
		if json.Unmarshal(rec.Body.Bytes(), &job) == nil {
			out.jobID = job.ID
		}
	} else {
		var env v1Envelope
		if json.Unmarshal(rec.Body.Bytes(), &env) == nil {
			out.code = env.Error.Code
		}
	}
	return out
}

// TestServerOverloadChurnHammer is the HTTP-level churn hammer: concurrent
// submissions race DELETE cancellations, drain/resume flips, and admission
// shedding, all under -race. The regression it pins down: a submission that
// was shed (429/503) must never reach the job journal — only granted jobs are
// journaled, exactly once each.
func TestServerOverloadChurnHammer(t *testing.T) {
	path := t.TempDir() + "/jobs.log"
	jl, _, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}

	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	srv.SetAdmission(admission.NewController(admission.Options{
		MaxConcurrent: 4,
		QueueCap:      4,
		QueueTimeout:  25 * time.Millisecond,
		Rate:          400,
		Burst:         8,
		Obs:           srv.Obs(),
	}))
	srv.SetJobLog(jl)
	srv.Queue().SetDeadline(2*time.Millisecond, 0)
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()

	var (
		mu          sync.Mutex
		accepted    = make(map[int]bool)
		acceptedIDs []int
		problems    []string
	)
	note := func(format string, args ...interface{}) {
		mu.Lock()
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Drain/resume flipper: admission must shed cleanly through the flips and
	// the server must keep serving afterwards.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Drain()
			time.Sleep(2 * time.Millisecond)
			resume(srv)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Canceller: DELETEs random accepted jobs while they run. 404/409 on
	// already-finished jobs are expected.
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var id int
			if len(acceptedIDs) > 0 {
				id = acceptedIDs[rng.Intn(len(acceptedIDs))]
			}
			mu.Unlock()
			if id != 0 {
				req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, id), nil)
				if res, err := http.DefaultClient.Do(req); err == nil {
					res.Body.Close()
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Liveness prober: /healthz answers 200 no matter what the churn does.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				note("healthz: %v", err)
				return
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				note("healthz = %d during churn, want 200", res.StatusCode)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const submitters, perSubmitter = 16, 8
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": dataset.IntroQ1().String()})
				switch res.StatusCode {
				case http.StatusAccepted:
					var job Job
					if err := json.NewDecoder(res.Body).Decode(&job); err != nil || job.ID == 0 {
						note("bad 202 body: %v", err)
					} else {
						mu.Lock()
						accepted[job.ID] = true
						acceptedIDs = append(acceptedIDs, job.ID)
						mu.Unlock()
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if res.Header.Get("Retry-After") == "" {
						note("%d rejection without Retry-After", res.StatusCode)
					}
					var env v1Envelope
					if err := json.NewDecoder(res.Body).Decode(&env); err != nil || env.Error.Code == "" {
						note("%d rejection without envelope code (err %v)", res.StatusCode, err)
					}
				default:
					note("unexpected submission status %d", res.StatusCode)
				}
				res.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	resume(srv)
	waitJobsIdle(t, srv)

	for _, p := range problems {
		t.Error(p)
	}

	// Every accepted job reached a terminal state.
	mu.Lock()
	ids := append([]int(nil), acceptedIDs...)
	mu.Unlock()
	for _, id := range ids {
		if st := jobView(srv, id).State; st == JobRunning || st == "" {
			t.Errorf("job %d state = %q after churn, want terminal", id, st)
		}
	}

	// The journal holds exactly the granted jobs: nothing shed, nothing lost,
	// nothing twice.
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(ids) {
		t.Errorf("journal has %d jobs, %d were accepted", len(recs), len(ids))
	}
	for _, rec := range recs {
		if !accepted[rec.ID] {
			t.Errorf("journal contains job %d which was never accepted (shed submission journaled)", rec.ID)
		}
	}
	if len(ids) == 0 {
		t.Error("hammer accepted no submissions at all")
	}
}

// TestSoakOverload is the acceptance soak: thousands of concurrent
// submissions against a 30%-faulty crowd behind a concurrency limit of 64.
// Every admitted job must reach a terminal state, every rejection must carry
// the error envelope and a Retry-After hint, the admission queue and question
// history stay bounded, and the server drains cleanly afterwards.
func TestSoakOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped with -short")
	}
	for _, seed := range faultSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { soakOverload(t, seed) })
	}
}

// soakCrowd answers srv's questions as a 30%-faulty crowd seeded by seed,
// until the returned stop function is called. Each attempt of a question is
// dropped with probability 0.2 (the queue's deadline re-asks it, then
// degrades it once the re-asks run out), answered wrong with probability
// 0.05, delayed by a millisecond with probability 0.05, and otherwise
// answered by the perfect oracle.
func soakCrowd(srv *Server, oracle *crowd.Perfect, seed int64) (stop func()) {
	rng := rand.New(rand.NewSource(seed))
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		var delayed sync.WaitGroup
		defer delayed.Wait()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		decided := make(map[[2]int]bool) // pending (question ID, attempt) pairs already handled
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			next := make(map[[2]int]bool)
			for _, qu := range srv.Queue().Pending() {
				k := [2]int{qu.ID, qu.Attempt}
				next[k] = true
				if decided[k] {
					continue
				}
				switch u := rng.Float64(); {
				case u < 0.2: // dropped
				case u < 0.25:
					_ = srv.Queue().Answer(qu.ID, wrongAnswer(qu, oracle))
				case u < 0.3:
					id, a := qu.ID, perfectAnswer(qu, oracle)
					delayed.Add(1)
					time.AfterFunc(time.Millisecond, func() {
						defer delayed.Done()
						_ = srv.Queue().Answer(id, a)
					})
				default:
					_ = srv.Queue().Answer(qu.ID, perfectAnswer(qu, oracle))
				}
			}
			decided = next
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// wrongAnswer is a faulty crowd member's reply: the opposite boolean for a
// verification, "none" for a completion. It never invents a value, so the
// cleaning loops it feeds stay bounded.
func wrongAnswer(qu *Question, oracle *crowd.Perfect) Answer {
	if a := perfectAnswer(qu, oracle); a.Bool != nil {
		v := !*a.Bool
		return Answer{Bool: &v}
	}
	return Answer{None: true}
}

func soakOverload(t *testing.T, seed int64) {
	const (
		submissions   = 5000
		maxConcurrent = 64
		queueCap      = 64
	)
	d, dg := dataset.Figure1()
	srv := New(d, core.Config{})
	defer srv.Close()
	ctrl := admission.NewController(admission.Options{
		MaxConcurrent: maxConcurrent,
		QueueCap:      queueCap,
		QueueTimeout:  50 * time.Millisecond,
		Rate:          2000,
		Burst:         256,
		Obs:           srv.Obs(),
	})
	srv.SetAdmission(ctrl)
	srv.Queue().SetDeadline(2*time.Millisecond, 1)
	defer soakCrowd(srv, crowd.NewPerfect(dg), seed)()
	h := srv.Handler()

	// Queue-depth sampler: the admission queue must never exceed its cap.
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	var maxDepth atomic.Int64
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampler:
				return
			default:
			}
			if depth := int64(ctrl.QueueDepth()); depth > maxDepth.Load() {
				maxDepth.Store(depth)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	results := make(chan submitResult, submissions)
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- submitClean(h)
		}()
	}
	wg.Wait()
	close(results)
	close(stopSampler)
	samplerDone.Wait()

	knownCodes := map[string]bool{
		admission.CodeRateLimited:  true,
		admission.CodeQueueFull:    true,
		admission.CodeQueueTimeout: true,
		admission.CodeDraining:     true,
	}
	var acceptedIDs []int
	rejected, badRejections := 0, 0
	for res := range results {
		switch res.status {
		case http.StatusAccepted:
			acceptedIDs = append(acceptedIDs, res.jobID)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
			if res.retryAfter == "" || !knownCodes[res.code] {
				if badRejections < 5 {
					t.Errorf("rejection %d lacks Retry-After (%q) or a known code (%q)", res.status, res.retryAfter, res.code)
				}
				badRejections++
			}
			if secs, err := strconv.Atoi(res.retryAfter); res.retryAfter != "" && (err != nil || secs < 1) {
				t.Errorf("Retry-After = %q, want integer >= 1", res.retryAfter)
			}
		default:
			t.Errorf("submission status = %d, want 202/429/503", res.status)
		}
	}
	if len(acceptedIDs) == 0 {
		t.Fatal("soak admitted no jobs")
	}
	if rejected == 0 {
		t.Fatalf("soak shed no jobs: %d submissions all fit", submissions)
	}
	if len(acceptedIDs)+rejected != submissions {
		t.Errorf("accepted %d + rejected %d != %d submitted", len(acceptedIDs), rejected, submissions)
	}
	t.Logf("seed %d: accepted %d, shed %d, max queue depth %d", seed, len(acceptedIDs), rejected, maxDepth.Load())

	if got := maxDepth.Load(); got > queueCap {
		t.Errorf("admission queue depth reached %d, cap is %d", got, queueCap)
	}

	// Every admitted job reaches a terminal state — no wedged runs, no leaked
	// grants.
	deadline := time.Now().Add(60 * time.Second)
	for srv.ActiveJobs() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d job(s) still running after soak", srv.ActiveJobs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	states := make(map[JobState]int)
	for _, id := range acceptedIDs {
		st := jobView(srv, id).State
		if st == JobRunning || st == "" {
			t.Errorf("admitted job %d state = %q, want terminal", id, st)
		}
		states[st]++
	}
	t.Logf("seed %d: job states %v, %d answers degraded", seed, states, srv.Queue().DegradedAnswers())
	if got := srv.Obs().Snapshot().Gauges[admission.MetricInflight]; got != 0 {
		t.Errorf("admission inflight = %v after all jobs finished, want 0", got)
	}
	if got := ctrl.QueueDepth(); got != 0 {
		t.Errorf("admission queue depth = %d after soak, want 0", got)
	}

	// Memory stays bounded: the question history ring never outgrows its cap
	// no matter how many questions the soak asked.
	if got := len(srv.Queue().History()); got > DefaultQuestionHistory {
		t.Errorf("question history holds %d events, cap is %d", got, DefaultQuestionHistory)
	}

	// And the server drains cleanly: new work is refused with the envelope,
	// in-flight work (none left) lets DrainWait return immediately.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.DrainWait(ctx); err != nil {
		t.Fatalf("DrainWait after soak: %v", err)
	}
	if res := submitClean(h); res.status != http.StatusServiceUnavailable || res.code != admission.CodeDraining {
		t.Errorf("post-drain submission = %d/%q, want 503/%q", res.status, res.code, admission.CodeDraining)
	}
}
