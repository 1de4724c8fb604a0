package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admission"
)

// defaultRetryAfter is the Retry-After hint served when no admission
// controller is installed to size a better one (plain drain mode).
const defaultRetryAfter = 5 * time.Second

// SetAdmission installs the overload-protection layer: every job submission
// (POST /api/v1/clean and view repairs) passes through ctrl, which applies the
// global rate limit, caps concurrent jobs, queues briefly under contention,
// and sheds the rest with 429/503 + Retry-After. Shed submissions never
// become jobs and never touch the job journal. Call before the handler
// serves traffic; a nil ctrl removes the layer (every submission is
// admitted, the pre-admission behavior).
func (s *Server) SetAdmission(ctrl *admission.Controller) {
	s.mu.Lock()
	s.admit = ctrl
	s.mu.Unlock()
}

// Admission returns the installed controller, nil if none.
func (s *Server) Admission() *admission.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admit
}

// Drain puts the server into drain mode for a graceful rollout: new job
// submissions are rejected with 503/draining (and Retry-After), queued
// submissions are shed, /readyz flips to not-ready so load balancers stop
// routing here, but in-flight jobs keep running to completion (or journal
// checkpoint) and every other endpoint stays up. Drain is one-way: the
// process exits once its jobs are done.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	ctrl := s.admit
	s.mu.Unlock()
	if ctrl != nil {
		ctrl.SetDraining(true)
	}
}

// Draining reports whether the server is in drain mode.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ActiveJobs returns the number of jobs currently running (launched and not
// yet terminal).
func (s *Server) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// DrainWait blocks until every launched job has reached a terminal state or
// ctx expires. Typical rollout sequence: Drain, DrainWait with the rollout
// budget, then Close and HTTP shutdown.
func (s *Server) DrainWait(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.ActiveJobs() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d job(s) still running: %w", s.ActiveJobs(), ctx.Err())
		case <-tick.C:
		}
	}
}

// registerHealth mounts /healthz (liveness) and /readyz (readiness) and the
// built-in readiness checks: drain state, job-journal writability, and
// admission-queue backpressure.
func (s *Server) registerHealth() {
	s.health.Add("drain", func() error {
		if s.Draining() {
			return errors.New("draining")
		}
		return nil
	})
	s.health.Add("journal", func() error {
		s.mu.Lock()
		jl := s.jobLog
		s.mu.Unlock()
		if jl == nil {
			return nil
		}
		if err := jl.Err(); err != nil {
			return fmt.Errorf("job journal failing: %w", err)
		}
		return nil
	})
	s.health.Add("store", func() error {
		if err := s.StoreError(); err != nil {
			return fmt.Errorf("store failing: %w", err)
		}
		return nil
	})
	s.health.Add("admission", func() error {
		ctrl := s.Admission()
		if ctrl == nil {
			return nil
		}
		if ctrl.Saturated() {
			return fmt.Errorf("admission queue past high-water mark (depth %d)", ctrl.QueueDepth())
		}
		return nil
	})
	s.mux.Handle("/healthz", admission.Liveness(s.start))
	s.mux.Handle("/readyz", s.health.Handler())
}

// setRetryAfter writes the Retry-After header (whole seconds, at least 1).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// admitJob passes one submission through the admission layer. It returns the
// grant to hold for the job's lifetime (nil when no controller is installed)
// and whether the submission was admitted; on rejection the error response
// has already been written.
func (s *Server) admitJob(w http.ResponseWriter, r *http.Request) (*admission.Grant, bool) {
	s.mu.Lock()
	ctrl, draining := s.admit, s.draining
	s.mu.Unlock()
	if ctrl == nil {
		// No controller: only drain mode is enforced.
		if draining {
			setRetryAfter(w, defaultRetryAfter)
			writeAPIError(w, http.StatusServiceUnavailable, admission.CodeDraining, "server is draining")
			return nil, false
		}
		return nil, true
	}
	grant, rej := ctrl.Admit(r.Context())
	if rej != nil {
		if rej.Status == 499 {
			// Client went away while queued; nobody is reading the response.
			return nil, false
		}
		setRetryAfter(w, rej.RetryAfter)
		writeAPIError(w, rej.Status, rej.Code, rej.Message)
		return nil, false
	}
	return grant, true
}
