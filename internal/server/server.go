package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sqlfe"
	"repro/internal/wal"
)

// JobState is the lifecycle of a cleaning job.
type JobState string

// Job states.
const (
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	// JobDegraded is a run that terminated, but only because at least one
	// crowd question exhausted its deadline re-asks and was answered with the
	// edit-free default: Q(D) = Q(DG) is not guaranteed.
	JobDegraded JobState = "degraded"
	// JobHandoff is a pseudo-terminal state used only in journals by the
	// cluster layer: the job's record was adopted by another replica, which
	// owns its real outcome from here on. A journal end event in this state
	// fences the job against double execution without claiming a result.
	JobHandoff JobState = "handoff"
)

// Job metric names recorded when the server's recorder is active.
const (
	MetricJobsStarted   = "server.jobs.started"
	MetricJobsDone      = "server.jobs.done"
	MetricJobsFailed    = "server.jobs.failed"
	MetricJobsCancelled = "server.jobs.cancelled"
	MetricJobsDegraded  = "server.jobs.degraded"
	MetricJobsRecovered = "server.jobs.recovered"
)

// Job tracks one asynchronous cleaning run.
type Job struct {
	ID     int          `json:"id"`
	Query  string       `json:"query"`
	State  JobState     `json:"state"`
	Error  string       `json:"error,omitempty"`
	Report *core.Report `json:"report,omitempty"`
	// Recovered marks a job restarted from the job journal after a crash:
	// its journaled answers were replayed instead of re-asked.
	Recovered bool `json:"recovered,omitempty"`

	cancel  context.CancelFunc // stops the run; nil once observed
	cleaner *core.Cleaner      // live progress source while running
	grant   *admission.Grant   // admission slot held for the run; nil when unprotected
}

// jobStatus is the versioned job view: the job plus, while it runs, live
// progress (current iteration, crowd cost so far) and the IDs of its pending
// crowd questions.
type jobStatus struct {
	Job
	Progress         *core.Progress `json:"progress,omitempty"`
	PendingQuestions []int          `json:"pending_questions,omitempty"`
}

// Server is the HTTP face of QOCO (Figure 5): it owns the dirty database,
// queues crowd questions, and runs cleaning jobs in the background.
//
// The versioned API lives under /api/v1/ (see docs/API.md):
//
//	GET    /api/v1/questions                 pending crowd questions
//	POST   /api/v1/questions/{id}/answer     answer a question
//	POST   /api/v1/clean                     start a job: {"query": ...} or {"sql": ...}
//	GET    /api/v1/jobs                      all jobs
//	GET    /api/v1/jobs/{id}                 job status, live progress, report
//	DELETE /api/v1/jobs/{id}                 cancel a running job
//	GET    /api/v1/query?q=...|sql=...       evaluate against the current database
//	GET    /api/v1/metrics                   process metrics (flat JSON)
//	GET    /api/v1/views, /api/v1/views/{name}, POST .../wrong, .../missing
//
// Error responses use the envelope
// {"error": {"code": "...", "message": "..."}}. The crowd console is served
// at /.
type Server struct {
	queue *Queue
	d     db.Store
	cfg   core.Config
	mux   *http.ServeMux
	obs   *obs.Recorder

	// dbMu serializes database access: cleaning jobs hold the write lock for
	// their full duration (crowd answers arrive through the lock-free
	// question queue), while query/view reads take the read lock. It also
	// guards the registered views.
	dbMu      sync.RWMutex
	views     map[string]*cq.Query // registered view name -> defining query
	viewOrder []string             // view names in registration order

	mu       sync.Mutex
	nextJob  int
	idIndex  int // job-ID residue class in cluster mode (see SetJobIDSpace)
	idStride int // 0 or 1 outside a cluster
	jobs     map[int]*Job
	jobLog   *wal.JobLog
	closing  bool  // graceful shutdown: in-flight jobs stay open in the journal
	storeErr error // sticky storage failure set by the boot path (storage.go)

	// Overload protection (see overload.go). All nil-safe: a server without
	// an admission controller admits everything, as before.
	admit    *admission.Controller
	health   *admission.Health
	start    time.Time
	draining bool
	active   int // jobs launched and not yet terminal
}

// New builds a server over any db.Store backend (callers passing the
// historical *db.Database keep compiling unchanged). cfg configures the
// cleaner; its Oracle is the server's own question queue. When cfg.Obs is
// nil the server creates its own recorder; either way the recorder is shared
// by the queue and every cleaner and served at /api/v1/metrics.
func New(d db.Store, cfg core.Config) *Server {
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := &Server{
		queue:  NewQueue(),
		d:      d,
		cfg:    cfg,
		mux:    http.NewServeMux(),
		obs:    cfg.Obs,
		views:  make(map[string]*cq.Query),
		jobs:   make(map[int]*Job),
		health: admission.NewHealth(),
		start:  time.Now(),
	}
	s.queue.Obs = s.obs

	// Handlers check methods themselves so that every error, including 405s,
	// wears the v1 envelope.
	s.mux.HandleFunc("/api/v1/questions", s.v1Questions)
	s.mux.HandleFunc("/api/v1/questions/log", s.v1QuestionLog)
	s.mux.HandleFunc("/api/v1/questions/{id}/answer", s.v1Answer)
	s.mux.HandleFunc("/api/v1/clean", s.v1Clean)
	s.mux.HandleFunc("/api/v1/jobs", s.v1Jobs)
	s.mux.HandleFunc("/api/v1/jobs/{id}", s.v1Job)
	s.mux.HandleFunc("/api/v1/query", s.v1Query)
	s.mux.HandleFunc("/api/v1/metrics", s.v1Metrics)
	s.mux.HandleFunc("/api/v1/db", s.v1DB)
	s.mux.HandleFunc("/api/v1/views", s.v1Views)
	s.mux.HandleFunc("/api/v1/views/{name}", s.v1View)
	s.mux.HandleFunc("/api/v1/views/{name}/{action}", s.v1ViewAction)
	s.mux.HandleFunc("/api/v1/", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint %s", r.URL.Path))
	})
	s.mux.HandleFunc("/", s.handleIndex)

	// Liveness/readiness probes (see overload.go).
	s.registerHealth()
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Queue exposes the question queue (for embedding and tests).
func (s *Server) Queue() *Queue { return s.queue }

// Obs returns the server's metrics recorder (the one behind /api/v1/metrics).
func (s *Server) Obs() *obs.Recorder { return s.obs }

// Close unblocks pending questions so background jobs can exit. Jobs still
// running are NOT journaled as finished: their journal records stay open so a
// later Recover resumes them where they stopped.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.queue.Close()
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeAPIError emits the versioned error envelope.
func writeAPIError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, map[string]interface{}{
		"error": map[string]string{"code": code, "message": message},
	})
}

// methodNotAllowed writes a v1 405 naming the allowed methods.
func methodNotAllowed(w http.ResponseWriter, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		fmt.Sprintf("allowed methods: %s", strings.Join(allowed, ", ")))
}

// pathID parses the {id} wildcard as an integer.
func pathID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

// --- versioned handlers ---

func (s *Server) v1Questions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.queue.Pending())
}

// v1QuestionLog serves the bounded ring of recently resolved questions —
// what was asked, how it resolved (answered/degraded/cancelled/replayed) and
// when. The ring's capacity, not lifetime traffic, bounds the response.
func (s *Server) v1QuestionLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, s.queue.History())
}

func (s *Server) v1Answer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad question id %q", r.PathValue("id")))
		return
	}
	var a Answer
	if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad answer body: %v", err))
		return
	}
	switch err := s.queue.Answer(id, a); {
	case errors.Is(err, ErrBadAnswer):
		writeAPIError(w, http.StatusBadRequest, "bad_request", err.Error())
	case err != nil:
		writeAPIError(w, http.StatusNotFound, "not_found", err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}
}

func (s *Server) v1Clean(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	if s.storageUnavailable(w) {
		return
	}
	var req cleanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad request body: %v", err))
		return
	}
	q, err := s.parseQuery(req)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	grant, ok := s.admitJob(w, r)
	if !ok {
		return
	}
	job := s.startJob(q, grant)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) v1Jobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, job := range s.jobs {
		out = append(out, *job)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) v1Job(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		id, err := pathID(r)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad job id %q", r.PathValue("id")))
			return
		}
		s.mu.Lock()
		job, ok := s.jobs[id]
		var status jobStatus
		var cleaner *core.Cleaner
		if ok {
			status.Job = *job
			if job.State == JobRunning {
				cleaner = job.cleaner
			}
		}
		s.mu.Unlock()
		if !ok {
			writeAPIError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no job %d", id))
			return
		}
		if cleaner != nil {
			p := cleaner.Progress()
			status.Progress = &p
			status.PendingQuestions = s.queue.PendingFor(id)
		}
		writeJSON(w, http.StatusOK, status)
	case http.MethodDelete:
		id, err := pathID(r)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("bad job id %q", r.PathValue("id")))
			return
		}
		s.mu.Lock()
		job, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			writeAPIError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no job %d", id))
			return
		}
		if job.State != JobRunning {
			state := job.State
			s.mu.Unlock()
			writeAPIError(w, http.StatusConflict, "conflict", fmt.Sprintf("job %d is %s, not running", id, state))
			return
		}
		job.State = JobCancelled
		cancel := job.cancel
		job.cancel = nil
		view := *job
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		// Unblock the job's in-flight questions immediately: the oracle call
		// returns its edit-free default within this request cycle rather than
		// at the cleaner's next context check.
		s.queue.CancelJob(id)
		s.obs.Inc(MetricJobsCancelled)
		writeJSON(w, http.StatusOK, view)
	default:
		methodNotAllowed(w, http.MethodGet, http.MethodDelete)
	}
}

func (s *Server) v1Query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.storageUnavailable(w) {
		return
	}
	req := cleanRequest{Query: r.URL.Query().Get("q"), SQL: r.URL.Query().Get("sql")}
	q, err := s.parseQuery(req)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.dbMu.RLock()
	rows := eval.Result(q, s.d)
	s.dbMu.RUnlock()
	out := make([][]string, len(rows))
	for i, t := range rows {
		out[i] = t
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"query": q.String(), "rows": out})
}

func (s *Server) v1Metrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	s.obs.Handler().ServeHTTP(w, r)
}

// v1DB serves GET /api/v1/db: the fact store's stats — backend, generation,
// per-relation fact counts, shard fan-out, and on-disk footprint.
func (s *Server) v1DB(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	if s.storageUnavailable(w) {
		return
	}
	s.dbMu.RLock()
	st := s.d.Stats()
	s.dbMu.RUnlock()
	writeJSON(w, http.StatusOK, st)
}

type cleanRequest struct {
	Query string `json:"query"` // cq syntax
	SQL   string `json:"sql"`   // or SQL
}

func (s *Server) parseQuery(req cleanRequest) (*cq.Query, error) {
	switch {
	case req.Query != "" && req.SQL != "":
		return nil, fmt.Errorf("give either query or sql, not both")
	case req.Query != "":
		q, err := cq.Parse(req.Query)
		if err != nil {
			return nil, err
		}
		return q, q.Validate(s.d.Schema())
	case req.SQL != "":
		return sqlfe.Parse(s.d.Schema(), req.SQL)
	default:
		return nil, fmt.Errorf("missing query")
	}
}

// startJob launches a fresh cleaning run against the crowd queue, journaling
// its spec first when a job journal is installed. The submission has already
// passed admission; grant (nil when no controller is installed) is held until
// the run reaches a terminal state. Only admitted jobs reach this point, so a
// shed submission never leaves a trace in the journal.
func (s *Server) startJob(q *cq.Query, grant *admission.Grant) Job {
	s.mu.Lock()
	id := s.nextJobIDLocked()
	jl := s.jobLog
	s.mu.Unlock()
	if jl != nil {
		// Journal the spec before the first question: a crash from here on can
		// recover the job. An append failure is sticky in the log; the job
		// still runs (availability over durability for the spec record).
		_ = jl.Start(id, q.String())
	}
	return s.launchJob(id, q, false, grant)
}

// SetJobIDSpace partitions the job-ID space for cluster operation: a server
// with index i in an N-replica cluster only issues IDs congruent to i modulo
// stride (= N), so IDs minted by different replicas can never collide and any
// job's origin replica is derivable as id mod stride. Recovery floors
// (SetJobLog, Recover) still apply: the next issued ID is the smallest member
// of the residue class above every ID ever seen. index/stride of 0/0 (or any
// stride < 2) restores the default dense numbering.
func (s *Server) SetJobIDSpace(index, stride int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idIndex, s.idStride = index, stride
}

// nextJobIDLocked issues the next job ID in this server's residue class.
// Callers hold s.mu.
func (s *Server) nextJobIDLocked() int {
	id := s.nextJob + 1
	if s.idStride > 1 {
		for id%s.idStride != s.idIndex {
			id++
		}
	}
	s.nextJob = id
	return id
}

// JobSummary is one job's identity and lifecycle state, without the live
// run internals — the shape the cluster layer exchanges for claim fencing.
type JobSummary struct {
	ID    int      `json:"id"`
	Query string   `json:"query"`
	State JobState `json:"state"`
}

// JobSummaries snapshots every known job's ID, query, and state.
func (s *Server) JobSummaries() []JobSummary {
	s.mu.Lock()
	out := make([]JobSummary, 0, len(s.jobs))
	for _, job := range s.jobs {
		out = append(out, JobSummary{ID: job.ID, Query: job.Query, State: job.State})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HasJob reports whether the server already tracks a job with this ID.
func (s *Server) HasJob(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[id]
	return ok
}

// Abandon hands running jobs off to another replica: each named job that is
// still running is stopped (context cancelled, pending questions released)
// and moves to the JobHandoff state, which finishJob journals in place of a
// real terminal state — the adopting replica's journal owns the job's real
// outcome. The return values let the caller distinguish the three cases the
// cluster fence protocol needs: abandoned lists the jobs THIS call stopped;
// states reports the current state of named jobs it did not touch (already
// terminal, or handed off by an earlier call); jobs unknown to this server
// appear in neither.
func (s *Server) Abandon(ids []int) (abandoned []int, states map[int]JobState) {
	states = make(map[int]JobState)
	var cancels []context.CancelFunc
	s.mu.Lock()
	for _, id := range ids {
		job, ok := s.jobs[id]
		if !ok {
			continue
		}
		if job.State != JobRunning {
			states[id] = job.State
			continue
		}
		job.State = JobHandoff
		abandoned = append(abandoned, id)
		if job.cancel != nil {
			cancels = append(cancels, job.cancel)
			job.cancel = nil
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, id := range abandoned {
		s.queue.CancelJob(id)
	}
	return abandoned, states
}

// launchJob runs job id against the crowd queue. The run carries a
// cancellable context tagged with the job ID, so DELETE /api/v1/jobs/{id} can
// stop it and the queue can attribute its questions. recovered marks jobs
// resumed from the journal by Recover.
func (s *Server) launchJob(id int, q *cq.Query, recovered bool, grant *admission.Grant) Job {
	ctx, cancel := context.WithCancel(context.Background())

	job := &Job{ID: id, Query: q.String(), State: JobRunning, Recovered: recovered, cancel: cancel, grant: grant}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.active++
	s.mu.Unlock()
	s.obs.Inc(MetricJobsStarted)
	if recovered {
		s.obs.Inc(MetricJobsRecovered)
	}

	ctx = withJob(ctx, job.ID)
	go s.runJob(job, func(cleaner *core.Cleaner) (*core.Report, error) {
		return cleaner.Clean(ctx, q)
	})

	s.mu.Lock()
	view := *job
	s.mu.Unlock()
	return view
}

// runJob runs a job body with a fresh cleaner under the database write lock,
// then syncs the store before releasing the lock and recording the outcome.
// The sync must precede finishJob's end record on every path: an end record
// over edits still sitting in the store's write buffer would let a crash lose
// them while the next boot's Recover skips the job as finished.
func (s *Server) runJob(job *Job, run func(*core.Cleaner) (*core.Report, error)) {
	s.dbMu.Lock()
	cleaner := core.New(s.d, s.queue, s.cfg)
	s.mu.Lock()
	job.cleaner = cleaner
	s.mu.Unlock()
	report, err := run(cleaner)
	syncErr := s.d.Sync()
	s.dbMu.Unlock()
	s.finishJob(job, report, err, syncErr)
}

// finishJob records a run's outcome. A failed store sync fails the job and
// leaves its journal record open, so the next boot re-runs it with its
// answers replayed. Otherwise a job already marked cancelled keeps that state
// (the run's context error is not a failure), and the report and error decide
// between done, degraded and failed. The terminal state is journaled — except
// during graceful shutdown, where an interrupted run's journal entry stays
// open so the next boot recovers it.
func (s *Server) finishJob(job *Job, report *core.Report, err, syncErr error) {
	s.queue.ClearReplay(job.ID)
	// The finished job's evaluation-cache sections are dead weight (the next
	// job re-warms from its own edits); drop them so sections never leak
	// across jobs. The cleaner already invalidates when Clean returns — this
	// covers every terminal path, including handoff and cancellation races.
	// It runs before the terminal state is published, so a client that sees
	// the state sees the sections gone.
	eval.InvalidateDB(s.d.ID())
	s.mu.Lock()
	job.Report = report
	job.cleaner = nil
	switch {
	case syncErr != nil:
		job.State = JobFailed
		job.Error = syncErr.Error()
		s.obs.Inc(MetricJobsFailed)
	case job.State == JobCancelled, job.State == JobHandoff:
		// State was set by the DELETE handler or by Abandon; nothing to decide.
	case err != nil:
		job.State = JobFailed
		job.Error = err.Error()
		s.obs.Inc(MetricJobsFailed)
	case report != nil && report.Degraded:
		job.State = JobDegraded
		s.obs.Inc(MetricJobsDegraded)
	default:
		job.State = JobDone
		s.obs.Inc(MetricJobsDone)
	}
	state := job.State
	jl := s.jobLog
	closing := s.closing
	grant := job.grant
	job.grant = nil
	s.active--
	s.mu.Unlock()
	grant.Release()
	// A cancelled job is finished by user decision even when the cancel races
	// a shutdown: journal its end so it is not resurrected.
	if jl != nil && syncErr == nil && (!closing || state == JobCancelled || state == JobHandoff) {
		_ = jl.End(job.ID, string(state))
	}
}

// reportOfEdits summarizes a targeted repair as a Report.
func reportOfEdits(edits []db.Edit) *core.Report {
	r := &core.Report{Edits: edits}
	for _, e := range edits {
		if e.Op == db.Insert {
			r.Insertions++
		} else {
			r.Deletions++
		}
	}
	return r
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
