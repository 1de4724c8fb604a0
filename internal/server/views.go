package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// viewRequest registers a named view: a query whose rows are evaluated when
// the view is read.
type viewRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	SQL   string `json:"sql"`
}

// reportRequest flags a wrong or missing answer in a view.
type reportRequest struct {
	Tuple []string `json:"tuple"`
}

// listViews snapshots the registered views for the list endpoint: each
// view's name, query and current row count, in registration order.
func (s *Server) listViews() []map[string]interface{} {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	out := make([]map[string]interface{}, 0, len(s.viewOrder))
	for _, name := range s.viewOrder {
		q := s.views[name]
		out = append(out, map[string]interface{}{
			"name": name, "query": q.String(), "rows": len(eval.Result(q, s.d)),
		})
	}
	return out
}

// registerView validates and registers a view, returning the parsed query and
// an HTTP status for the error, if any.
func (s *Server) registerView(req viewRequest) (*cq.Query, int, error) {
	if req.Name == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("missing view name")
	}
	q, err := s.parseQuery(cleanRequest{Query: req.Query, SQL: req.SQL})
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	if _, dup := s.views[req.Name]; dup {
		return nil, http.StatusConflict, fmt.Errorf("duplicate view %q", req.Name)
	}
	s.views[req.Name] = q
	s.viewOrder = append(s.viewOrder, req.Name)
	return q, http.StatusCreated, nil
}

func (s *Server) v1Views(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.listViews())
	case http.MethodPost:
		var req viewRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad view body: %v", err))
			return
		}
		q, status, err := s.registerView(req)
		if err != nil {
			code := "bad_request"
			if status == http.StatusConflict {
				code = "conflict"
			}
			writeAPIError(w, status, code, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"name": req.Name, "query": q.String()})
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodPost)
	}
}

func (s *Server) v1View(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	name := r.PathValue("name")
	s.dbMu.RLock()
	q := s.views[name]
	var rows []db.Tuple
	if q != nil {
		rows = eval.Result(q, s.d)
	}
	s.dbMu.RUnlock()
	if q == nil {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no view %q", name))
		return
	}
	out := make([][]string, len(rows))
	for i, t := range rows {
		out[i] = t
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"name": name, "query": q.String(), "rows": out,
	})
}

func (s *Server) v1ViewAction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	name, action := r.PathValue("name"), r.PathValue("action")
	if action != "wrong" && action != "missing" {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unsupported view action %q", action))
		return
	}
	s.dbMu.RLock()
	q := s.views[name]
	s.dbMu.RUnlock()
	if q == nil {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no view %q", name))
		return
	}
	var req reportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad report body: %v", err))
		return
	}
	if len(req.Tuple) != q.Arity() {
		writeAPIError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("tuple arity %d, view has arity %d", len(req.Tuple), q.Arity()))
		return
	}
	if err := db.ValidateValues(req.Tuple); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad report tuple: %v", err))
		return
	}
	grant, ok := s.admitJob(w, r)
	if !ok {
		return
	}
	job := s.startRepairJob(q, db.Tuple(req.Tuple), action, grant)
	writeJSON(w, http.StatusAccepted, job)
}

// startRepairJob launches a targeted wrong-answer removal or missing-answer
// insertion for a reported view error — the paper's §1 workflow: "whenever an
// error is reported in a view, QOCO can take over to clean the underlying
// database". Like full cleaning jobs it is cancellable via the v1 API, passes
// admission first, holds its grant until the run is terminal, and journals
// its spec before the first question. Recover does not resume it (see
// isRepairSpec).
func (s *Server) startRepairJob(q *cq.Query, t db.Tuple, action string, grant *admission.Grant) Job {
	ctx, cancel := context.WithCancel(context.Background())

	s.mu.Lock()
	job := &Job{ID: s.nextJobIDLocked(), Query: fmt.Sprintf("%s %s %s", action, t, q), State: JobRunning, cancel: cancel, grant: grant}
	s.jobs[job.ID] = job
	s.active++
	jl := s.jobLog
	s.mu.Unlock()
	if jl != nil {
		// finishJob journals an end record and the queue journals every
		// answer, so the job needs its start record too. As in startJob, an
		// append failure stays sticky in the log and the job still runs.
		_ = jl.Start(job.ID, job.Query)
	}
	s.obs.Inc(MetricJobsStarted)

	ctx = withJob(ctx, job.ID)
	go s.runJob(job, func(cleaner *core.Cleaner) (*core.Report, error) {
		var err error
		var edits []db.Edit
		if action == "wrong" {
			edits, err = cleaner.RemoveWrongAnswer(ctx, q, t)
		} else {
			edits, err = cleaner.AddMissingAnswer(ctx, q, t)
		}
		return reportOfEdits(edits), err
	})

	s.mu.Lock()
	view := *job
	s.mu.Unlock()
	return view
}

// isRepairSpec reports whether a journaled spec is a repair job's
// ("wrong (…) Q" or "missing (…) Q"). A rendered query never starts with a
// word and a space: its head is "(…)" or "name(…)".
func isRepairSpec(spec string) bool {
	return strings.HasPrefix(spec, "wrong ") || strings.HasPrefix(spec, "missing ")
}
