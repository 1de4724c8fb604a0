package admission

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestBucketRefillAndRetryAfter(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newBucket(10, 2, t0) // 10 tokens/s, burst 2, starts full

	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("take %d: bucket should start full", i)
		}
	}
	ok, retry := b.take(t0)
	if ok {
		t.Fatal("third take should fail")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 100ms]", retry)
	}
	if ok, _ := b.take(t0.Add(150 * time.Millisecond)); !ok {
		t.Fatal("take after refill interval should succeed")
	}
	// Refill caps at burst.
	b2 := newBucket(10, 2, t0)
	b2.tokens = 0
	if ok, _ := b2.take(t0.Add(time.Hour)); !ok {
		t.Fatal("take after long idle should succeed")
	}
	if b2.tokens > 1 {
		t.Fatalf("tokens = %v, want capped at burst-1 = 1", b2.tokens)
	}
}

func TestControllerConcurrencyLimitAndQueueing(t *testing.T) {
	rec := obs.New()
	c := NewController(Options{MaxConcurrent: 2, QueueTimeout: 2 * time.Second, Obs: rec})

	g1, rej := c.Admit(context.Background())
	if rej != nil {
		t.Fatalf("first admit rejected: %+v", rej)
	}
	g2, rej := c.Admit(context.Background())
	if rej != nil {
		t.Fatalf("second admit rejected: %+v", rej)
	}
	if inflight(c) != 2 {
		t.Fatalf("inflight = %d, want 2", inflight(c))
	}

	// Third admit must queue until a slot frees.
	type res struct {
		g *Grant
		r *Rejection
	}
	ch := make(chan res, 1)
	go func() {
		g, r := c.Admit(context.Background())
		ch <- res{g, r}
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	g1.Release()
	got := <-ch
	if got.r != nil {
		t.Fatalf("queued admit rejected: %+v", got.r)
	}
	got.g.Release()
	g2.Release()
	if inflight(c) != 0 {
		t.Fatalf("inflight = %d after releases, want 0", inflight(c))
	}
	if n := rec.Counter(MetricAdmitted); n != 3 {
		t.Fatalf("admitted = %d, want 3", n)
	}
	if n := rec.Counter(MetricQueued); n != 1 {
		t.Fatalf("queued = %d, want 1", n)
	}
}

func TestControllerQueueTimeout(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, QueueTimeout: 30 * time.Millisecond})
	g, _ := c.Admit(context.Background())
	defer g.Release()

	_, rej := c.Admit(context.Background())
	if rej == nil {
		t.Fatal("want queue-timeout rejection")
	}
	if rej.Status != http.StatusServiceUnavailable || rej.Code != CodeQueueTimeout {
		t.Fatalf("rejection = %d/%s, want 503/%s", rej.Status, rej.Code, CodeQueueTimeout)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", rej.RetryAfter)
	}
}

func TestControllerShedsOldestDeadlineFirst(t *testing.T) {
	rec := obs.New()
	c := NewController(Options{MaxConcurrent: 1, QueueCap: 1, QueueTimeout: 5 * time.Second, Obs: rec})
	g, _ := c.Admit(context.Background())

	// w2 queues (oldest deadline).
	type res struct {
		g *Grant
		r *Rejection
	}
	ch2 := make(chan res, 1)
	go func() {
		g, r := c.Admit(context.Background())
		ch2 <- res{g, r}
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })

	// w3 arrives with a later deadline into a full queue: w2 is shed.
	ch3 := make(chan res, 1)
	go func() {
		g, r := c.Admit(context.Background())
		ch3 <- res{g, r}
	}()
	got2 := <-ch2
	if got2.r == nil || got2.r.Code != CodeQueueFull || got2.r.Status != http.StatusServiceUnavailable {
		t.Fatalf("displaced waiter got %+v, want 503/%s", got2.r, CodeQueueFull)
	}

	// Freeing the slot grants the surviving waiter.
	g.Release()
	got3 := <-ch3
	if got3.r != nil {
		t.Fatalf("surviving waiter rejected: %+v", got3.r)
	}
	got3.g.Release()
	if n := rec.Counter(MetricRejectedFull); n != 1 {
		t.Fatalf("queue_full rejections = %d, want 1", n)
	}
}

func TestControllerDraining(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, QueueTimeout: 5 * time.Second})
	g, _ := c.Admit(context.Background())

	// Queue one waiter, then drain: the waiter is shed, new arrivals are
	// rejected, and the in-flight grant stays valid.
	ch := make(chan *Rejection, 1)
	go func() {
		_, r := c.Admit(context.Background())
		ch <- r
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	c.SetDraining(true)
	if r := <-ch; r == nil || r.Code != CodeDraining {
		t.Fatalf("queued waiter under drain got %+v, want %s", r, CodeDraining)
	}
	if _, r := c.Admit(context.Background()); r == nil || r.Code != CodeDraining || r.Status != http.StatusServiceUnavailable {
		t.Fatalf("admit under drain got %+v, want 503/%s", r, CodeDraining)
	}
	g.Release()

	c.SetDraining(false)
	if g, r := c.Admit(context.Background()); r != nil {
		t.Fatalf("admit after drain lift rejected: %+v", r)
	} else {
		g.Release()
	}
}

func TestControllerRateLimits(t *testing.T) {
	rec := obs.New()
	c := NewController(Options{MaxConcurrent: 8, Rate: 0.001, Burst: 1, Obs: rec})
	g, rej := c.Admit(context.Background())
	if rej != nil {
		t.Fatalf("burst admit rejected: %+v", rej)
	}
	g.Release()
	_, rej = c.Admit(context.Background())
	if rej == nil || rej.Status != http.StatusTooManyRequests || rej.Code != CodeRateLimited {
		t.Fatalf("rejection = %+v, want 429/%s", rej, CodeRateLimited)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("rate rejection must carry Retry-After")
	}
	if n := rec.Counter(MetricRejectedRate); n != 1 {
		t.Fatalf("rate rejections = %d, want 1", n)
	}
}

// TestSlowJobsKeepTheCap: jobs wait on human experts and on each other for
// the database lock, so a long job says nothing about server load. After 20
// jobs that each ran 6s, all MaxConcurrent slots are still granted at once.
func TestSlowJobsKeepTheCap(t *testing.T) {
	const maxConcurrent = 8
	now := time.Unix(1000, 0)
	rec := obs.New()
	c := NewController(Options{
		MaxConcurrent: maxConcurrent, QueueTimeout: 10 * time.Millisecond, Obs: rec,
		now: func() time.Time { return now },
	})
	for i := 0; i < 20; i++ {
		g, rej := c.Admit(context.Background())
		if rej != nil {
			t.Fatalf("job %d rejected: %+v", i, rej)
		}
		now = now.Add(6 * time.Second)
		g.Release()
	}
	for i := 0; i < maxConcurrent; i++ {
		g, rej := c.Admit(context.Background())
		if rej != nil {
			t.Fatalf("grant %d of %d rejected: %+v", i+1, maxConcurrent, rej)
		}
		defer g.Release()
	}
	if n := rec.Counter(MetricQueued); n != 0 {
		t.Fatalf("queued = %d, want 0", n)
	}
}

// TestNonPositiveSizesTakeDefaults: a negative MaxConcurrent or QueueCap is
// unset, not a queue of negative capacity. A submission that has to wait
// queues and times out; it must not reach an empty heap with the
// controller's lock held, which would hang every later Admit and Release.
func TestNonPositiveSizesTakeDefaults(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, QueueCap: -1, QueueTimeout: 10 * time.Millisecond})
	g, rej := c.Admit(context.Background())
	if rej != nil {
		t.Fatalf("first admit rejected: %+v", rej)
	}
	if _, rej := c.Admit(context.Background()); rej == nil || rej.Code != CodeQueueTimeout {
		t.Fatalf("second admit got %+v, want a wait in the default queue, then %s", rej, CodeQueueTimeout)
	}
	g.Release()

	c = NewController(Options{MaxConcurrent: -1})
	for i := 0; i < 2; i++ {
		g, rej := c.Admit(context.Background())
		if rej != nil {
			t.Fatalf("admit %d under the default cap rejected: %+v", i+1, rej)
		}
		defer g.Release()
	}
}

func TestGrantReleaseIdempotent(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 2})
	g, _ := c.Admit(context.Background())
	g.Release()
	g.Release()
	if got := inflight(c); got != 0 {
		t.Fatalf("inflight = %d after redundant releases, want 0", got)
	}
	var nilGrant *Grant
	nilGrant.Release() // must not panic
}

func TestHealthRegistryAndHandlers(t *testing.T) {
	h := NewHealth()
	ready, _ := h.Check()
	if !ready {
		t.Fatal("empty registry should be ready")
	}

	var bad error = fmtError("journal: disk full")
	h.Add("journal", func() error { return bad })
	h.Add("drain", func() error { return nil })
	ready, detail := h.Check()
	if ready {
		t.Fatal("failing probe should make the registry unready")
	}
	if detail["drain"] != "ok" || detail["journal"] != "journal: disk full" {
		t.Fatalf("detail = %v", detail)
	}

	rr := httptest.NewRecorder()
	h.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503", rr.Code)
	}

	// Probe recovery flips it back.
	bad = nil
	rr = httptest.NewRecorder()
	h.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("readyz status after recovery = %d, want 200", rr.Code)
	}

	rr = httptest.NewRecorder()
	Liveness(time.Now()).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", rr.Code)
	}
}

// fmtError lets a test toggle a probe's error through a captured variable.
type fmtError string

func (e fmtError) Error() string { return string(e) }

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// Ensure a queued waiter whose context is cancelled leaves the queue clean.
func TestControllerContextCancellation(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, QueueTimeout: 5 * time.Second})
	g, _ := c.Admit(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan *Rejection, 1)
	go func() {
		_, r := c.Admit(ctx)
		ch <- r
	}()
	waitFor(t, func() bool { return c.QueueDepth() == 1 })
	cancel()
	if r := <-ch; r == nil || r.Code != "client_cancelled" {
		t.Fatalf("cancelled admit got %+v", r)
	}
	waitFor(t, func() bool { return c.QueueDepth() == 0 })
	g.Release()
}

// inflight returns the number of admitted, unreleased jobs.
func inflight(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}
