// Package admission is the serving stack's overload-protection layer: it
// decides, per cleaning-job submission, whether the server runs the job now,
// queues it briefly, or sheds it with a retryable error — instead of
// accepting unbounded work until the process OOMs or wedges.
//
// The paper's interactive model (§3, §6.2) makes every in-flight job
// expensive: it pins the database write lock, holds crowd questions open for
// human-scale latencies, and retains its working state until the crowd
// answers. A burst of clients therefore cannot simply be accepted; the
// controller applies:
//
//   - a global token bucket on submissions (Options.Rate/Burst)
//   - a fixed cap on simultaneously-admitted jobs (Options.MaxConcurrent)
//   - a bounded, deadline-aware admission queue that sheds the
//     oldest-deadline waiter first when full (Options.QueueCap, QueueTimeout)
//   - a drain mode for graceful rollouts that stops admitting while
//     in-flight work finishes (SetDraining)
//
// The cap does not adapt to job latency. Jobs serialize on the server's
// database write lock, so a job's latency is crowd time plus its wait for
// earlier jobs, not a sign of server load.
//
// Every decision is observable through an obs.Recorder, and every rejection
// carries an HTTP status, a stable error code, and a Retry-After hint so
// well-behaved clients back off instead of hammering.
package admission

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metric names recorded when Options.Obs is set.
const (
	// MetricAdmitted counts submissions granted a run slot (immediately or
	// after queueing); MetricQueued counts the ones that waited.
	MetricAdmitted = "admission.admitted"
	MetricQueued   = "admission.queued"
	// MetricShed counts every rejection, of any kind. The rejected.* series
	// break it down by cause.
	MetricShed          = "admission.shed"
	MetricRejectedRate  = "admission.rejected.rate"
	MetricRejectedFull  = "admission.rejected.queue_full"
	MetricRejectedDrain = "admission.rejected.draining"
	// MetricQueueDepth / MetricInflight are point-in-time gauges of the
	// admission queue and the admitted, unreleased jobs.
	MetricQueueDepth = "admission.queue.depth"
	MetricInflight   = "admission.inflight"
	// MetricWaitSeconds is the admission latency: how long a submission
	// waited between arrival and its grant or shed.
	MetricWaitSeconds = "admission.wait.seconds"
)

// Rejection codes (the code field of the /api/v1 error envelope).
const (
	CodeRateLimited  = "rate_limited"
	CodeQueueFull    = "queue_full"
	CodeQueueTimeout = "queue_timeout"
	CodeDraining     = "draining"
)

// Rejection is a shed submission: the HTTP status to serve (429 for a rate
// rejection the client caused, 503 for server overload and drain), a stable
// machine-readable code, and the Retry-After hint.
type Rejection struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

// Options tunes a Controller. A zero field selects its documented default,
// and so does a negative MaxConcurrent or QueueCap; the zero Options as a
// whole yields a controller with the job cap and queueing only (no rate
// limiting).
type Options struct {
	// MaxConcurrent caps simultaneously-admitted jobs. Default 64.
	MaxConcurrent int
	// Rate is the global submission rate (jobs/second); Burst the bucket
	// capacity. Rate 0 disables rate limiting; Burst 0 defaults to
	// max(Rate, 1).
	Rate, Burst float64
	// QueueCap bounds the admission queue. When it is full, the waiter with
	// the oldest deadline is shed to make room. Default 4*MaxConcurrent.
	QueueCap int
	// QueueTimeout is how long a queued submission may wait for a slot
	// before it is shed. Default 10s.
	QueueTimeout time.Duration
	// Obs receives the admission metrics. Nil disables recording.
	Obs *obs.Recorder

	// now overrides the clock in tests.
	now func() time.Time
}

func (o *Options) applyDefaults() {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.Burst == 0 {
		o.Burst = max(o.Rate, 1)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxConcurrent
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = 10 * time.Second
	}
	if o.now == nil {
		o.now = time.Now
	}
}

// Controller is the admission decision point. One controller guards one
// serving process; it is safe for concurrent use.
type Controller struct {
	opts Options

	mu       sync.Mutex
	global   *bucket
	inflight int
	queue    waitQueue
	draining bool
	// latencyEWMA tracks recent job latency to size Retry-After hints.
	latencyEWMA time.Duration
}

// NewController builds a controller from opts.
func NewController(opts Options) *Controller {
	opts.applyDefaults()
	c := &Controller{opts: opts}
	if opts.Rate > 0 {
		c.global = newBucket(opts.Rate, opts.Burst, opts.now())
	}
	return c
}

// Grant is an admitted job's capacity reservation: hold it for the job's
// lifetime and Release it exactly once when the job reaches a terminal state.
type Grant struct {
	c     *Controller
	start time.Time
	once  sync.Once
}

// Release returns the grant's capacity. Release is idempotent and a no-op on
// a nil grant.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.once.Do(func() { g.c.release(g) })
}

// waiter is one queued submission.
type waiter struct {
	deadline time.Time
	// done delivers the decision exactly once: a grant or a rejection.
	done chan admitResult
	// index is the heap position, -1 once removed.
	index int
}

type admitResult struct {
	grant *Grant
	rej   *Rejection
}

// SetDraining toggles drain mode: while draining every new submission is
// rejected with 503/draining and queued waiters are shed, but grants already
// issued stay valid so in-flight jobs finish.
func (c *Controller) SetDraining(on bool) {
	c.mu.Lock()
	c.draining = on
	var shed []*waiter
	if on {
		shed = c.queue.drainAll()
		c.gauges()
	}
	retry := c.retryAfterLocked()
	c.mu.Unlock()
	for _, w := range shed {
		w.done <- admitResult{rej: c.rejection(http.StatusServiceUnavailable, CodeDraining, "server is draining", retry, MetricRejectedDrain)}
	}
}

// QueueDepth returns the number of queued submissions.
func (c *Controller) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.len()
}

// Saturated reports whether the admission queue is at or past its high-water
// mark (80% of capacity) — the readiness probe's backpressure signal.
func (c *Controller) Saturated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.len()*10 >= c.opts.QueueCap*8
}

// retryAfterLocked sizes a Retry-After hint from observed job latency: one
// EWMA job latency (at least a second), the time for roughly one slot to
// free up.
func (c *Controller) retryAfterLocked() time.Duration {
	if c.latencyEWMA > time.Second {
		return c.latencyEWMA
	}
	return time.Second
}

// rejection builds a Rejection and records it.
func (c *Controller) rejection(status int, code, msg string, retry time.Duration, metric string) *Rejection {
	c.opts.Obs.Inc(MetricShed)
	c.opts.Obs.Inc(metric)
	return &Rejection{Status: status, Code: code, Message: msg, RetryAfter: retry}
}

// gauges refreshes the queue and inflight gauges; callers hold c.mu.
func (c *Controller) gauges() {
	c.opts.Obs.SetGauge(MetricQueueDepth, float64(c.queue.len()))
	c.opts.Obs.SetGauge(MetricInflight, float64(c.inflight))
}

// grantLocked admits one job; callers hold c.mu and have checked that
// inflight is under the cap.
func (c *Controller) grantLocked() *Grant {
	c.inflight++
	c.opts.Obs.Inc(MetricAdmitted)
	c.gauges()
	return &Grant{c: c, start: c.opts.now()}
}

// Admit decides one submission. It returns either a Grant (run the job,
// Release when it finishes) or a Rejection (serve its status/code with a
// Retry-After header). It blocks up to Options.QueueTimeout when every job
// slot is taken; cancelling ctx abandons the wait.
func (c *Controller) Admit(ctx context.Context) (*Grant, *Rejection) {
	start := c.opts.now()
	defer func() { c.opts.Obs.ObserveDuration(MetricWaitSeconds, c.opts.now().Sub(start)) }()

	c.mu.Lock()
	now := c.opts.now()
	if c.draining {
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		return nil, c.rejection(http.StatusServiceUnavailable, CodeDraining, "server is draining", retry, MetricRejectedDrain)
	}
	if c.global != nil {
		if ok, wait := c.global.take(now); !ok {
			c.mu.Unlock()
			return nil, c.rejection(http.StatusTooManyRequests, CodeRateLimited,
				"global submission rate exceeded", wait, MetricRejectedRate)
		}
	}
	if c.queue.len() == 0 && c.inflight < c.opts.MaxConcurrent {
		g := c.grantLocked()
		c.mu.Unlock()
		return g, nil
	}

	// Queue, shedding the oldest-deadline waiter when full. With uniform
	// timeouts the oldest deadline is the stalest submission — the one least
	// likely to still be wanted by its client.
	w := &waiter{deadline: now.Add(c.opts.QueueTimeout), done: make(chan admitResult, 1)}
	var displaced *waiter
	if c.queue.len() >= c.opts.QueueCap {
		if !c.queue.peek().deadline.Before(w.deadline) {
			retry := c.retryAfterLocked()
			c.mu.Unlock()
			return nil, c.rejection(http.StatusServiceUnavailable, CodeQueueFull,
				"admission queue full", retry, MetricRejectedFull)
		}
		displaced = c.queue.pop()
	}
	c.queue.push(w)
	c.opts.Obs.Inc(MetricQueued)
	retry := c.retryAfterLocked()
	c.gauges()
	c.mu.Unlock()
	if displaced != nil {
		displaced.done <- admitResult{rej: c.rejection(http.StatusServiceUnavailable, CodeQueueFull,
			"shed from the admission queue under overload", retry, MetricRejectedFull)}
	}

	timer := time.NewTimer(w.deadline.Sub(now))
	defer timer.Stop()
	select {
	case res := <-w.done:
		return res.grant, res.rej
	case <-timer.C:
		c.mu.Lock()
		if !c.queue.remove(w) {
			// A grant or shed raced the timer; the decision is in the channel.
			c.mu.Unlock()
			res := <-w.done
			return res.grant, res.rej
		}
		c.gauges()
		c.mu.Unlock()
		return nil, c.rejection(http.StatusServiceUnavailable, CodeQueueTimeout,
			"no capacity within the admission deadline", retry, MetricRejectedFull)
	case <-ctx.Done():
		c.mu.Lock()
		if !c.queue.remove(w) {
			c.mu.Unlock()
			res := <-w.done
			if res.grant != nil {
				// The grant raced the cancellation; the caller is gone, so
				// hand the capacity straight back.
				res.grant.Release()
				return nil, &Rejection{Status: 499, Code: "client_cancelled", Message: "client went away"}
			}
			return res.grant, res.rej
		}
		c.gauges()
		c.mu.Unlock()
		return nil, &Rejection{Status: 499, Code: "client_cancelled", Message: "client went away"}
	}
}

// release returns a grant's capacity, folds its latency into the Retry-After
// hint, and hands freed slots to queued waiters (earliest deadline first).
func (c *Controller) release(g *Grant) {
	now := c.opts.now()
	latency := now.Sub(g.start)

	c.mu.Lock()
	c.inflight--
	// EWMA with alpha 0.3: recent jobs dominate the Retry-After hint.
	c.latencyEWMA = time.Duration(0.7*float64(c.latencyEWMA) + 0.3*float64(latency))

	for c.queue.len() > 0 && c.inflight < c.opts.MaxConcurrent {
		head := c.queue.pop()
		if head.deadline.Before(now) {
			// Expired while waiting: its Admit call is about to time out (or
			// already has); dropping it here keeps the heap tidy either way.
			head.done <- admitResult{rej: c.rejection(http.StatusServiceUnavailable, CodeQueueTimeout,
				"no capacity within the admission deadline", c.retryAfterLocked(), MetricRejectedFull)}
			continue
		}
		head.done <- admitResult{grant: c.grantLocked()}
	}
	c.gauges()
	c.mu.Unlock()
}
