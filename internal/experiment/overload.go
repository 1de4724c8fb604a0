package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/server"
)

// OverloadRow is one point of the submission-rate sweep: a fixed-capacity
// server offered IntroQ1 cleaning jobs at a given open-loop rate, reporting
// how many were admitted versus shed and the admission-decision latency
// distribution (the time a client waits between submitting and learning
// whether its job runs).
type OverloadRow struct {
	OfferedRate float64       `json:"offered_rate"` // submissions per second
	Submitted   int           `json:"submitted"`
	Admitted    int           `json:"admitted"`
	Shed        int           `json:"shed"`
	ShedRate    float64       `json:"shed_rate"`
	P50Wait     time.Duration `json:"p50_admission_wait_ns"`
	P99Wait     time.Duration `json:"p99_admission_wait_ns"`
}

// The sweep's fixed server: at most 8 admitted jobs, a queue of 16 that sheds
// after 100ms, and a 32 jobs/s token bucket that sheds with 429 before
// queueing starts. The offered rates span under, at and past that capacity.
var overloadRates = []float64{4, 16, 64, 256}

const (
	overloadMaxConcurrent = 8
	overloadQueueCap      = 16
	overloadQueueTimeout  = 100 * time.Millisecond
	overloadServerRate    = 32
)

// OverloadSweep offers IntroQ1 cleaning jobs to a fresh Figure-1 server at
// each rate for the given duration and measures the admission control's
// response. The crowd is simulated by a short question deadline, so admitted
// jobs finish degraded in milliseconds — the sweep isolates the serving path,
// not crowd latency. Arrivals are open-loop (a fixed interval per rate): slow
// admission does not slow the offered load, exactly like independent clients.
func OverloadSweep(duration time.Duration) []OverloadRow {
	var rows []OverloadRow
	for _, rate := range overloadRates {
		rows = append(rows, overloadPoint(rate, duration))
	}
	return rows
}

func overloadPoint(rate float64, duration time.Duration) OverloadRow {
	d, _ := dataset.Figure1()
	srv := server.New(d, core.Config{})
	defer srv.Close()
	srv.SetAdmission(admission.NewController(admission.Options{
		MaxConcurrent: overloadMaxConcurrent,
		QueueCap:      overloadQueueCap,
		QueueTimeout:  overloadQueueTimeout,
		Rate:          overloadServerRate,
		Obs:           srv.Obs(),
	}))
	srv.Queue().SetDeadline(2*time.Millisecond, 0)
	h := srv.Handler()

	body, _ := json.Marshal(map[string]string{"query": dataset.IntroQ1().String()})
	interval := time.Duration(float64(time.Second) / rate)
	total := int(duration / interval)
	if total < 1 {
		total = 1
	}

	row := OverloadRow{OfferedRate: rate, Submitted: total}
	var (
		mu    sync.Mutex
		waits []time.Duration
		wg    sync.WaitGroup
	)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; i < total; i++ {
		<-ticker.C
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/api/v1/clean", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			wait := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			waits = append(waits, wait)
			if rec.Code == http.StatusAccepted {
				row.Admitted++
			} else {
				row.Shed++
			}
		}()
	}
	wg.Wait()

	// Let admitted jobs finish so the next rate point starts from idle.
	deadline := time.Now().Add(30 * time.Second)
	for srv.ActiveJobs() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	if row.Submitted > 0 {
		row.ShedRate = float64(row.Shed) / float64(row.Submitted)
	}
	row.P50Wait = percentile(waits, 0.50)
	row.P99Wait = percentile(waits, 0.99)
	return row
}

// percentile returns the p-quantile of the observed durations (nearest-rank).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RenderOverload formats the sweep as a text table.
func RenderOverload(rows []OverloadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload sweep — IntroQ1 submissions vs admission control\n")
	fmt.Fprintf(&b, "%10s %10s %9s %6s %7s %10s %10s\n",
		"offered/s", "submitted", "admitted", "shed", "shed%", "p50 wait", "p99 wait")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10.0f %10d %9d %6d %6.0f%% %10s %10s\n",
			r.OfferedRate, r.Submitted, r.Admitted, r.Shed, 100*r.ShedRate,
			r.P50Wait.Round(time.Microsecond), r.P99Wait.Round(time.Microsecond))
	}
	return b.String()
}
