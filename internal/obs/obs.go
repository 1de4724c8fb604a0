// Package obs is the engine's observability core: named counters, gauges
// and histograms behind one thread-safe Recorder, with an expvar-compatible
// JSON snapshot for the server's /api/v1/metrics endpoint. It depends only
// on the standard library so every layer — the cleaning algorithms, the
// hitting-set solver, the evaluator, the crowd oracles, the HTTP server —
// can record into it without import cycles.
//
// All Recorder methods are nil-receiver safe: instrumented code records
// unconditionally and a nil recorder makes every operation a no-op, so the
// hot paths carry no configuration branches.
package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"
)

// histBuckets is the number of log2 histogram buckets. Bucket i counts
// observations v with 2^(i-bucketBias-1) < v <= 2^(i-bucketBias); the first
// and last buckets absorb underflow and overflow. The bias puts ~8µs at
// bucket 0, so both sub-millisecond latencies (seconds) and set sizes
// (counts) land in meaningful buckets.
const (
	histBuckets = 48
	bucketBias  = 17
)

// histogram accumulates observations of one named series.
type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v))) + bucketBias
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// quantile returns the upper bound of the bucket holding the ⌈q·count⌉-th
// smallest observation, clamped to [min, max]; callers check count > 0.
func (h *histogram) quantile(q float64) float64 {
	rank := int64(math.Ceil(q * float64(h.count)))
	var seen int64
	for i, n := range h.buckets {
		if seen += n; seen >= rank {
			return math.Min(h.max, math.Max(h.min, math.Ldexp(1, i-bucketBias)))
		}
	}
	return h.max
}

// Recorder collects named metrics. The zero value is not usable; use New.
// A nil *Recorder is valid and ignores every operation.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// Add increments the named counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Inc increments the named counter by one.
func (r *Recorder) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of the named counter (0 if absent).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// SetGauge sets the named gauge to v, overwriting any previous value.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe adds one observation to the named histogram.
func (r *Recorder) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &histogram{}
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// ObserveDuration records d in seconds into the named histogram — the
// convention for every *.seconds latency series.
func (r *Recorder) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, d.Seconds())
}

// Timer starts a latency measurement; the returned func records the elapsed
// time into the named histogram when called:
//
//	defer rec.Timer("phase.delete.seconds")()
func (r *Recorder) Timer(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.ObserveDuration(name, time.Since(start)) }
}

// HistogramSnapshot is one histogram's summary at snapshot time. P50, P90
// and P99 come from the log2 buckets (see histogram.quantile): for positive
// observations inside the buckets' range, each is at least the true quantile
// and less than twice it.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a consistent copy of every metric in a recorder.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns a copy of all metrics, safe to read while recording
// continues. A nil recorder yields an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
			hs.P50, hs.P90, hs.P99 = h.quantile(0.50), h.quantile(0.90), h.quantile(0.99)
		}
		s.Histograms[k] = hs
	}
	return s
}

// Flat renders the snapshot as one expvar-style JSON object: a flat map from
// metric name to value (counters and gauges as numbers, histograms as summary
// objects), matching the shape /debug/vars serves.
func (s Snapshot) Flat() map[string]interface{} {
	out := make(map[string]interface{}, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k, v := range s.Counters {
		out[k] = v
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, v := range s.Histograms {
		out[k] = v
	}
	return out
}

// Handler serves the recorder as expvar-compatible JSON (sorted keys, one
// flat object), suitable for mounting at a metrics endpoint.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, r)
	})
}

// WriteJSON writes the recorder's flat snapshot to w with deterministic key
// order (encoding/json sorts map keys).
func WriteJSON(w http.ResponseWriter, r *Recorder) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot().Flat())
}
