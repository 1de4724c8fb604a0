package admission

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Health is a readiness-probe registry: named checks that each report nil
// (ready) or the error making the process unready. The checks a server
// registers are drain state, journal writability, store health, and
// admission-queue backpressure.
type Health struct {
	mu     sync.Mutex
	names  []string
	probes map[string]func() error
}

// NewHealth returns an empty registry (always ready).
func NewHealth() *Health {
	return &Health{probes: make(map[string]func() error)}
}

// Add registers a named check. Re-adding a name replaces its probe.
func (h *Health) Add(name string, probe func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.probes[name]; !ok {
		h.names = append(h.names, name)
		sort.Strings(h.names)
	}
	h.probes[name] = probe
}

// Check runs every probe: ready is true only when all pass, and detail maps
// each check name to "ok" or its error.
func (h *Health) Check() (ready bool, detail map[string]string) {
	h.mu.Lock()
	names := append([]string(nil), h.names...)
	probes := make([]func() error, len(names))
	for i, n := range names {
		probes[i] = h.probes[n]
	}
	h.mu.Unlock()

	ready = true
	detail = make(map[string]string, len(names))
	for i, n := range names {
		if err := probes[i](); err != nil {
			ready = false
			detail[n] = err.Error()
		} else {
			detail[n] = "ok"
		}
	}
	return ready, detail
}

// Handler serves the registry as a readiness endpoint: 200 with
// {"ready": true, "checks": {...}} when every check passes, 503 otherwise.
func (h *Health) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		ready, detail := h.Check()
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]interface{}{"ready": ready, "checks": detail})
	})
}

// Liveness returns the liveness endpoint: always 200 while the process can
// serve it, with the uptime since start — the signal that distinguishes "slow
// but alive" (do not restart) from "wedged" (restart).
func Liveness(start time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"ok":             true,
			"uptime_seconds": time.Since(start).Seconds(),
		})
	})
}
