package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCountersAndGauges(t *testing.T) {
	r := New()
	r.Inc("a")
	r.Add("a", 4)
	r.Add("b", -2)
	r.SetGauge("g", 1.5)
	r.SetGauge("g", 2.5)
	if got := r.Counter("a"); got != 5 {
		t.Errorf("counter a = %d, want 5", got)
	}
	if got := r.Counter("b"); got != -2 {
		t.Errorf("counter b = %d, want -2", got)
	}
	if got := r.Counter("absent"); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
	if got := r.Snapshot().Gauges["g"]; got != 2.5 {
		t.Errorf("gauge g = %v, want 2.5", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	r := New()
	for _, v := range []float64{1, 2, 3, 10} {
		r.Observe("h", v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 4 || s.Sum != 16 || s.Min != 1 || s.Max != 10 || s.Mean != 4 {
		t.Errorf("histogram = %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		r.Observe("constant", 0.003)
	}
	for v := 1; v <= 100; v++ {
		r.Observe("ramp", float64(v))
	}
	snap := r.Snapshot().Histograms
	// A constant series reads its value back: its bucket's upper bound,
	// 2^-8, is clamped to the max.
	if s := snap["constant"]; s.P50 != 0.003 || s.P90 != 0.003 || s.P99 != 0.003 {
		t.Errorf("constant quantiles = %v/%v/%v, want 0.003 each", s.P50, s.P90, s.P99)
	}
	// 1..100: the 50th value lies in (32, 64]; the 90th and 99th lie in
	// (64, 128], whose bound is clamped to the max, 100.
	if s := snap["ramp"]; s.P50 != 64 || s.P90 != 100 || s.P99 != 100 {
		t.Errorf("1..100 quantiles = %v/%v/%v, want 64/100/100", s.P50, s.P90, s.P99)
	}
}

func TestObserveDurationAndTimer(t *testing.T) {
	r := New()
	r.ObserveDuration("lat.seconds", 250*time.Millisecond)
	done := r.Timer("lat.seconds")
	done()
	s := r.Snapshot().Histograms["lat.seconds"]
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.Max < 0.25 || s.Max > 0.5 {
		t.Errorf("max = %v, want ~0.25", s.Max)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Inc("a")
	r.Add("a", 2)
	r.SetGauge("g", 1)
	r.Observe("h", 1)
	r.ObserveDuration("h", time.Second)
	r.Timer("h")()
	if got := r.Counter("a"); got != 0 {
		t.Errorf("nil counter = %d", got)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
}

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-3, 0},
		{1, bucketBias},
		{2, bucketBias + 1},
		{1e300, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHandlerServesFlatJSON(t *testing.T) {
	r := New()
	r.Inc("crowd.questions.verify_fact")
	r.SetGauge("server.questions.pending", 3)
	r.Observe("phase.delete.seconds", 0.01)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var flat map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &flat); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if flat["crowd.questions.verify_fact"] != float64(1) {
		t.Errorf("counter in JSON = %v", flat["crowd.questions.verify_fact"])
	}
	if flat["server.questions.pending"] != float64(3) {
		t.Errorf("gauge in JSON = %v", flat["server.questions.pending"])
	}
	h, ok := flat["phase.delete.seconds"].(map[string]interface{})
	if !ok || h["count"] != float64(1) || h["p99"] != 0.01 {
		t.Errorf("histogram in JSON = %v", flat["phase.delete.seconds"])
	}
}

// TestConcurrentRecording hammers one recorder from many goroutines; run
// under -race this guards the locking discipline.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Inc("c")
				r.SetGauge("g", float64(i))
				r.Observe("h", float64(i%7))
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c"); got != 16*500 {
		t.Errorf("counter = %d, want %d", got, 16*500)
	}
	if s := r.Snapshot().Histograms["h"]; s.Count != 16*500 {
		t.Errorf("histogram count = %d, want %d", s.Count, 16*500)
	}
}
