package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/wal"
)

// SoakOptions parameterizes the cluster failover soak.
type SoakOptions struct {
	// Seed drives every random choice: submission routing, fault injection,
	// chaos victims. The same seed replays the same soak.
	Seed int64
	// Submissions is the number of cleaning jobs submitted (default 250).
	Submissions int
	// FaultRate is the probability a crowd answer is wrong — flipped booleans
	// and premature "nothing to complete" declarations (default 0.3). Faults
	// never fabricate tuples, so cleaning runs stay bounded.
	FaultRate float64
	// KillCycles is the number of kill/restart chaos rounds (default 6). One
	// replica is down at a time: the cluster's guarantee is single-failure
	// tolerance (see docs/CLUSTER.md).
	KillCycles int
	// Timeout bounds the whole soak (default 2m).
	Timeout time.Duration
	// Logf receives progress lines; nil discards.
	Logf func(string, ...interface{})
}

// The soak runs soakReplicas replicas, which probe each other every
// soakProbeInterval. A killed replica stays down for soakRestartDelay,
// comfortably past the detection threshold, so takeover always completes
// before the restart's claims query.
const (
	soakReplicas      = 3
	soakProbeInterval = 15 * time.Millisecond
	soakRestartDelay  = 12 * soakProbeInterval
)

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Submissions <= 0 {
		o.Submissions = 250
	}
	if o.FaultRate < 0 {
		o.FaultRate = 0
	} else if o.FaultRate == 0 {
		o.FaultRate = 0.3
	}
	if o.KillCycles <= 0 {
		o.KillCycles = 6
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// SoakReport summarizes one soak run.
type SoakReport struct {
	Submissions int `json:"submissions"`
	Acked       int `json:"acked"`   // 202s the cluster must honor
	Unacked     int `json:"unacked"` // submissions shed or lost to a dying entry point
	Kills       int `json:"kills"`

	Takeovers    int64 `json:"takeovers"`
	TakeoverJobs int64 `json:"takeover_jobs"`
	Replayed     int64 `json:"replayed"`      // questions answered from replicated journals
	BootHandoffs int64 `json:"boot_handoffs"` // restarts fenced by the claims protocol
	FullSyncs    int64 `json:"full_syncs"`
	Forwarded    int64 `json:"forwarded"` // submissions proxied to their ring owner

	States map[string]int `json:"states"` // terminal state histogram over acked jobs
}

// soakReplica is one live incarnation of a cluster member.
type soakReplica struct {
	id   string
	node *Node
	srv  *server.Server
	jl   *wal.JobLog
	done chan struct{}
}

// faultyOracle wraps a perfect oracle with seeded wrong answers: booleans
// flip, completions prematurely declare "nothing". It never invents tuples,
// so the cleaning loops it feeds stay bounded.
type faultyOracle struct {
	mu   sync.Mutex
	rnd  *rand.Rand
	rate float64
	base crowd.Oracle
}

func (f *faultyOracle) chance() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rnd.Float64() < f.rate
}

func (f *faultyOracle) VerifyFact(ctx context.Context, fact db.Fact) bool {
	v := f.base.VerifyFact(ctx, fact)
	if f.chance() {
		return !v
	}
	return v
}

func (f *faultyOracle) VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) bool {
	v := f.base.VerifyAnswer(ctx, q, t)
	if f.chance() {
		return !v
	}
	return v
}

func (f *faultyOracle) Complete(ctx context.Context, q *cq.Query, partial eval.Assignment) (eval.Assignment, bool) {
	if f.chance() {
		return nil, false
	}
	return f.base.Complete(ctx, q, partial)
}

func (f *faultyOracle) CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	if f.chance() {
		return nil, false
	}
	return f.base.CompleteResult(ctx, q, current)
}

// soakHarness owns the cluster's slots and incarnation bookkeeping.
type soakHarness struct {
	opts  SoakOptions
	ids   []string
	peers []Peer
	slots []*slotServer
	dir   string

	mu     sync.Mutex
	live   []*soakReplica // by index; nil while down
	gen    int            // incarnation counter, seeds each crowd differently
	report SoakReport
}

// slotServer is the soak's swappable HTTP front for one replica identity:
// the URL outlives kill/restart cycles; a dead replica aborts connections.
// A kill also aborts the requests in flight: each response is held until its
// handler returns and is sent only if the incarnation that served it is
// still the live one. A crashed process answers nothing, so it cannot ack a
// submission whose start record it never journaled.
type slotServer struct {
	mu  sync.Mutex
	h   http.Handler
	gen int // bumped by every set, so a response can tell its incarnation died
	ts  *httptest.Server
}

func newSlotServer() *slotServer {
	s := &slotServer{}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		h, gen := s.h, s.gen
		s.mu.Unlock()
		if h == nil {
			panic(http.ErrAbortHandler)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		s.mu.Lock()
		live := s.gen == gen
		s.mu.Unlock()
		if !live {
			panic(http.ErrAbortHandler)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	return s
}

func (s *slotServer) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.gen++
	s.mu.Unlock()
}

// RunSoak runs the crash-tolerance soak: Submissions cleaning jobs against a
// soakReplicas-node in-process cluster with a FaultRate-faulty crowd, while a
// chaos loop kills and restarts replicas. It fails unless every acked job
// reaches a terminal state on exactly one replica — across every crash,
// takeover, and restart — as audited from the job journals themselves.
func RunSoak(opts SoakOptions) (*SoakReport, error) {
	opts = opts.withDefaults()
	dir, err := os.MkdirTemp("", "qoco-cluster-soak-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h := &soakHarness{opts: opts, dir: dir}
	for i := 0; i < soakReplicas; i++ {
		h.ids = append(h.ids, fmt.Sprintf("r%d", i))
	}
	for i, id := range h.ids {
		sl := newSlotServer()
		defer sl.ts.Close()
		h.slots = append(h.slots, sl)
		h.peers = append(h.peers, Peer{ID: id, URL: sl.ts.URL})
		_ = i
	}
	h.live = make([]*soakReplica, soakReplicas)
	for i := range h.ids {
		r, err := h.startReplica(i)
		if err != nil {
			return nil, err
		}
		h.live[i] = r
	}
	defer func() {
		for i := range h.live {
			h.mu.Lock()
			r := h.live[i]
			h.live[i] = nil
			h.mu.Unlock()
			if r != nil {
				h.stopReplica(i, r)
			}
		}
	}()

	deadline := time.Now().Add(opts.Timeout)
	acked := make(map[int]bool)

	// Submissions and chaos overlap: the point of the soak is jobs in flight
	// while replicas die.
	var wg sync.WaitGroup
	var submitErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		submitErr = h.submitAll(acked)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.chaos()
	}()
	wg.Wait()
	if submitErr != nil {
		return &h.report, submitErr
	}
	h.report.Acked = len(acked)
	h.report.Unacked = h.report.Submissions - len(acked)
	opts.Logf("soak: %d/%d submissions acked, %d kills; waiting for terminal states",
		len(acked), h.report.Submissions, h.report.Kills)

	// Every acked job must reach a terminal state on some replica.
	states, err := h.awaitTerminal(acked, deadline)
	if err != nil {
		return &h.report, err
	}
	h.report.States = states

	// Shut everything down cleanly, then audit the raw journals.
	for i := range h.live {
		h.mu.Lock()
		r := h.live[i]
		h.live[i] = nil
		h.mu.Unlock()
		if r != nil {
			h.stopReplica(i, r)
		}
	}
	if err := h.auditJournals(acked); err != nil {
		return &h.report, err
	}
	return &h.report, nil
}

// startReplica boots incarnation gen+1 of replica i over its persistent
// journal and replica-log directory.
func (h *soakHarness) startReplica(i int) (*soakReplica, error) {
	h.mu.Lock()
	h.gen++
	gen := h.gen
	h.mu.Unlock()
	id := h.ids[i]
	d, dg := dataset.Figure1()
	jl, records, err := wal.OpenJobLog(filepath.Join(h.dir, id+"-jobs.log"))
	if err != nil {
		return nil, fmt.Errorf("soak: %s journal: %w", id, err)
	}
	srv := server.New(d, core.Config{})
	srv.SetJobLog(jl)
	node, err := NewNode(srv, jl, records, Config{
		Self: id, Peers: h.peers, Dir: filepath.Join(h.dir, id+"-replica"), Replicate: true,
		ProbeInterval: soakProbeInterval, probeTimeout: time.Second, failThreshold: 2,
		Obs:    srv.Obs(),
		client: &http.Client{Timeout: 2 * time.Second},
		Logf:   func(format string, args ...interface{}) { h.opts.Logf("["+id+"] "+format, args...) },
	})
	if err != nil {
		jl.Close()
		return nil, fmt.Errorf("soak: %s node: %w", id, err)
	}
	if _, err := node.BootRecover(records); err != nil {
		return nil, fmt.Errorf("soak: %s boot recover: %w", id, err)
	}
	h.slots[i].set(node.Handler())
	node.Start()

	r := &soakReplica{id: id, node: node, srv: srv, jl: jl, done: make(chan struct{})}
	oracle := &faultyOracle{
		rnd:  rand.New(rand.NewSource(h.opts.Seed*1000 + int64(gen))),
		rate: h.opts.FaultRate,
		base: crowd.NewPerfect(dg),
	}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-tick.C:
			}
			for _, qu := range srv.Queue().Pending() {
				a, err := AnswerQuestion(context.Background(), qu, oracle)
				if err != nil {
					continue
				}
				_ = srv.Queue().Answer(qu.ID, a)
			}
		}
	}()
	return r, nil
}

// stopReplica crash-stops one incarnation (slot dark first) and absorbs its
// metrics into the report.
func (h *soakHarness) stopReplica(i int, r *soakReplica) {
	h.slots[i].set(nil)
	close(r.done)
	h.absorb(r)
	r.node.Stop()
	r.srv.Close()
	_ = r.jl.Close()
}

// absorb folds an incarnation's counters into the report totals. Called
// once, at stop time (each incarnation has a fresh recorder).
func (h *soakHarness) absorb(r *soakReplica) {
	o := r.srv.Obs()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.report.Takeovers += o.Counter(MetricTakeovers)
	h.report.TakeoverJobs += o.Counter(MetricTakeoverJobs)
	h.report.Replayed += o.Counter(server.MetricQuestionsReplayed)
	h.report.BootHandoffs += o.Counter(MetricBootHandoffs)
	h.report.FullSyncs += o.Counter(MetricShipSyncs)
	h.report.Forwarded += o.Counter(MetricRouteForwarded)
}

// submitAll drives the submission load: each job goes to a seeded-random
// entry replica (retrying the others when the entry is mid-crash) with a
// seeded client identity so the ring spreads ownership.
func (h *soakHarness) submitAll(acked map[int]bool) error {
	rnd := rand.New(rand.NewSource(h.opts.Seed + 1))
	queries := []string{dataset.IntroQ1().String(), dataset.IntroQ2().String()}
	client := &http.Client{Timeout: 2 * time.Second}
	var ackedMu sync.Mutex
	for i := 0; i < h.opts.Submissions; i++ {
		h.report.Submissions++
		raw, _ := json.Marshal(map[string]string{"query": queries[rnd.Intn(len(queries))]})
		entry := rnd.Intn(len(h.slots))
		apiKey := fmt.Sprintf("client-%d", rnd.Intn(17))
		for attempt := 0; attempt < len(h.slots); attempt++ {
			url := h.slots[(entry+attempt)%len(h.slots)].ts.URL + "/api/v1/clean"
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-API-Key", apiKey)
			res, err := client.Do(req)
			if err != nil {
				continue // entry point is down; try the next replica
			}
			var job struct {
				ID int `json:"id"`
			}
			decErr := json.NewDecoder(res.Body).Decode(&job)
			res.Body.Close()
			if res.StatusCode == http.StatusAccepted && decErr == nil {
				ackedMu.Lock()
				acked[job.ID] = true
				ackedMu.Unlock()
				break
			}
			// Shed (429/503): the cluster owes us nothing for this one.
			break
		}
		time.Sleep(time.Millisecond) // stretch the load across the chaos window
	}
	return nil
}

// chaos runs the kill/restart loop: one victim at a time, preferring
// replicas with jobs in flight, down for soakRestartDelay (past failure
// detection, so takeover completes before the restart's claims query).
func (h *soakHarness) chaos() {
	rnd := rand.New(rand.NewSource(h.opts.Seed + 2))
	for c := 0; c < h.opts.KillCycles; c++ {
		time.Sleep(soakRestartDelay)
		victim := -1
		h.mu.Lock()
		busy := []int{}
		for i, r := range h.live {
			if r == nil {
				continue
			}
			if r.srv.ActiveJobs() > 0 {
				busy = append(busy, i)
			}
		}
		if len(busy) > 0 {
			victim = busy[rnd.Intn(len(busy))]
		} else {
			victim = rnd.Intn(len(h.live))
			if h.live[victim] == nil {
				victim = -1
			}
		}
		var r *soakReplica
		if victim >= 0 {
			r = h.live[victim]
			h.live[victim] = nil
		}
		h.mu.Unlock()
		if r == nil {
			continue
		}
		h.opts.Logf("soak: chaos cycle %d: killing %s (%d active jobs)", c, r.id, r.srv.ActiveJobs())
		h.stopReplica(victim, r)
		h.mu.Lock()
		h.report.Kills++
		h.mu.Unlock()
		time.Sleep(soakRestartDelay)
		reborn, err := h.startReplica(victim)
		if err != nil {
			h.opts.Logf("soak: restarting %s: %v", h.ids[victim], err)
			return
		}
		h.mu.Lock()
		h.live[victim] = reborn
		h.mu.Unlock()
		// Let membership heal before the next kill: single-failure tolerance
		// assumes detection and takeover finish between failures.
		time.Sleep(4 * soakProbeInterval)
	}
}

// awaitTerminal polls the live replicas until every acked job is terminal
// somewhere, returning the terminal-state histogram.
func (h *soakHarness) awaitTerminal(acked map[int]bool, deadline time.Time) (map[string]int, error) {
	terminal := func(s server.JobState) bool {
		switch s {
		case server.JobDone, server.JobFailed, server.JobCancelled, server.JobDegraded:
			return true
		}
		return false
	}
	for {
		states := make(map[string]int)
		missing := 0
		var missingIDs []int
		for id := range acked {
			found := ""
			h.mu.Lock()
			replicas := append([]*soakReplica(nil), h.live...)
			h.mu.Unlock()
			for _, r := range replicas {
				if r == nil {
					continue
				}
				for _, s := range r.srv.JobSummaries() {
					if s.ID == id && terminal(s.State) {
						found = string(s.State)
						break
					}
				}
				if found != "" {
					break
				}
			}
			if found == "" {
				missing++
				if len(missingIDs) < 8 {
					missingIDs = append(missingIDs, id)
				}
				continue
			}
			states[found]++
		}
		if missing == 0 {
			return states, nil
		}
		if time.Now().After(deadline) {
			sort.Ints(missingIDs)
			return nil, fmt.Errorf("soak: %d acked job(s) never reached a terminal state (e.g. %v)", missing, missingIDs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// auditJournals is the exactly-once check, from the raw journals: every
// acked job must have exactly one real (non-handoff) end event across every
// replica's job journal — however many crashes, takeovers, and restarts it
// lived through.
func (h *soakHarness) auditJournals(acked map[int]bool) error {
	realEnds := make(map[int]int)
	handoffs := make(map[int]int)
	starts := make(map[int]int)
	for _, id := range h.ids {
		path := filepath.Join(h.dir, id+"-jobs.log")
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("soak: audit: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		jobSeen := make(map[int]bool)
		for sc.Scan() {
			var ev wal.JobEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				continue // clean shutdown: only a torn tail could land here
			}
			switch ev.Ev {
			case "start":
				if !jobSeen[ev.Job] {
					jobSeen[ev.Job] = true
					starts[ev.Job]++
				}
			case "end":
				if ev.State == string(server.JobHandoff) {
					handoffs[ev.Job]++
				} else {
					realEnds[ev.Job]++
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("soak: audit scanning %s: %w", path, err)
		}
	}
	var bad []string
	ids := make([]int, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if n := realEnds[id]; n != 1 && len(bad) < 10 {
			bad = append(bad, fmt.Sprintf("job %d: %d real end events (%d starts, %d handoffs)",
				id, n, starts[id], handoffs[id]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("soak: exactly-once violated for %d job(s): %v", len(bad), bad)
	}
	return nil
}
