package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
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

// slot is a swappable HTTP target: a long-lived httptest server whose
// backing handler can be replaced (replica restart) or removed (replica
// crash — connections abort so probes fail, not 503).
type slot struct {
	mu sync.Mutex
	h  http.Handler
	ts *httptest.Server
}

func newSlot(t *testing.T) *slot {
	s := &slot{}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		h := s.h
		s.mu.Unlock()
		if h == nil {
			panic(http.ErrAbortHandler) // dead replica: abort the connection
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *slot) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// replica is one in-process cluster member for tests.
type replica struct {
	id     string
	node   *Node
	srv    *server.Server
	jl     *wal.JobLog
	d, dg  *db.Database
	donech chan struct{}
}

// startReplica boots (or reboots — same dirs) one replica and points its
// slot at the node handler. A perfect-oracle answer loop drains its queue.
func startReplica(t *testing.T, id string, peers []Peer, sl *slot, jlPath, repDir string, probe time.Duration) *replica {
	t.Helper()
	d, dg := dataset.Figure1()
	jl, records, err := wal.OpenJobLog(jlPath)
	if err != nil {
		t.Fatalf("%s: OpenJobLog: %v", id, err)
	}
	srv := server.New(d, core.Config{})
	srv.SetJobLog(jl)
	node, err := NewNode(srv, jl, records, Config{
		Self: id, Peers: peers, Dir: repDir, Replicate: true,
		ProbeInterval: probe, probeTimeout: time.Second, failThreshold: 2,
		Obs:    srv.Obs(),
		client: &http.Client{Timeout: 2 * time.Second},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("%s: NewNode: %v", id, err)
	}
	if _, err := node.BootRecover(records); err != nil {
		t.Fatalf("%s: BootRecover: %v", id, err)
	}
	sl.set(node.Handler())
	node.Start()

	r := &replica{id: id, node: node, srv: srv, jl: jl, d: d, dg: dg, donech: make(chan struct{})}
	oracle := crowd.NewPerfect(dg)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-r.donech:
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
	return r
}

// kill crash-stops the replica: slot goes dark first (probes start failing),
// then the node and server shut down the crash-equivalent way.
func (r *replica) kill(sl *slot) {
	sl.set(nil)
	close(r.donech)
	r.node.Stop()
	r.srv.Close()
	_ = r.jl.Close()
}

// answersShipped counts the crowd answers a replica's received journal for
// origin holds for one job.
func answersShipped(r *replica, origin string, jobID int) int {
	rl := r.node.replicaLog(origin)
	if rl == nil {
		return 0
	}
	for _, rec := range rl.Jobs() {
		if rec.ID != jobID {
			continue
		}
		n := 0
		for _, as := range rec.Answers {
			n += len(as)
		}
		return n
	}
	return 0
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterFailover is the end-to-end tentpole test: a 3-replica cluster
// routes a submission to its owner, replicates the job journal to the
// owner's successor, survives the owner's crash by resuming the job there
// with journaled answers replayed, and fences the owner's restart so the job
// runs exactly once.
func TestClusterFailover(t *testing.T) {
	slots := []*slot{newSlot(t), newSlot(t), newSlot(t)}
	peers := make([]Peer, 3)
	ids := []string{"r0", "r1", "r2"}
	for i, id := range ids {
		peers[i] = Peer{ID: id, URL: slots[i].ts.URL}
	}
	base := t.TempDir()
	jlPath := func(id string) string { return filepath.Join(base, id+"-jobs.log") }
	repDir := func(id string) string { return filepath.Join(base, id+"-replica") }

	reps := make(map[string]*replica)
	for i, id := range ids {
		reps[id] = startReplica(t, id, peers, slots[i], jlPath(id), repDir(id), 20*time.Millisecond)
	}
	t.Cleanup(func() {
		for i, id := range ids {
			if reps[id] != nil {
				reps[id].kill(slots[i])
			}
		}
	})

	// Submit through a non-owner entry point: the router must deliver the job
	// to its ring owner regardless of which replica the client hit.
	raw, _ := json.Marshal(map[string]string{"query": dataset.IntroQ1().String()})
	res, err := http.Post(slots[0].ts.URL+"/api/v1/clean", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(res.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", res.StatusCode)
	}
	ownerID := ids[job.ID%3]
	owner := reps[ownerID]
	if !owner.srv.HasJob(job.ID) {
		t.Fatalf("job %d not registered on its residue-class owner %s", job.ID, ownerID)
	}

	ownerIdx := 0
	for i, id := range ids {
		if id == ownerID {
			ownerIdx = i
		}
	}
	succID := ids[(ownerIdx+1)%3]
	succ := reps[succID]

	// Let at least one crowd answer replicate to the owner's successor, then
	// crash the owner before the job can finish. The successor's replica log
	// — not the owner's answer counter — is what replay is measured against:
	// an answer's ship can race the kill and legitimately be lost.
	waitFor(t, "first replicated answer on "+succID, 5*time.Second, func() bool {
		return answersShipped(succ, ownerID, job.ID) >= 1
	})
	owner.kill(slots[ownerIdx])
	reps[ownerID] = nil

	// The owner's successor on the sorted-ID circle detects the crash and
	// adopts the job.
	waitFor(t, "takeover by "+succID, 10*time.Second, func() bool {
		return succ.srv.HasJob(job.ID)
	})
	if got := succ.srv.Obs().Counter(MetricTakeovers); got < 1 {
		t.Errorf("successor takeovers = %d, want >= 1", got)
	}

	// The adopted job runs to completion on the successor, replaying the
	// already-journaled answers instead of re-asking them.
	waitFor(t, "job completion on "+succID, 10*time.Second, func() bool {
		for _, s := range succ.srv.JobSummaries() {
			if s.ID == job.ID {
				return s.State == server.JobDone
			}
		}
		return false
	})
	// Every answer that reached the replica log before the crash is replayed
	// instead of re-asked. (The shipped count is frozen at kill time: a dead
	// owner ships nothing more.)
	shipped := answersShipped(succ, ownerID, job.ID)
	if shipped < 1 {
		t.Fatalf("replica log on %s holds %d answers, want >= 1", succID, shipped)
	}
	if replayed := succ.srv.Obs().Counter(server.MetricQuestionsReplayed); replayed < int64(shipped) {
		t.Errorf("successor replayed %d answers, replica log had %d", replayed, shipped)
	}

	// The cleaned database on the successor matches what a perfect
	// uninterrupted run produces.
	wantRes := evalResult(t, dataset.IntroQ1().String(), succ.dg)
	gotRes := evalResult(t, dataset.IntroQ1().String(), succ.d)
	if !sameRows(gotRes, wantRes) {
		t.Errorf("cleaned result after failover = %v, want %v", gotRes, wantRes)
	}

	// Restart the crashed owner over its surviving journal: the claims
	// protocol must fence the job — it was already claimed (and finished)
	// elsewhere — so it is not executed a second time.
	reborn := startReplica(t, ownerID, peers, slots[ownerIdx], jlPath(ownerID), repDir(ownerID), 20*time.Millisecond)
	reps[ownerID] = reborn
	if got := reborn.srv.Obs().Counter(MetricBootHandoffs); got != 1 {
		t.Errorf("reborn owner boot handoffs = %d, want 1", got)
	}
	if asked := reborn.srv.Obs().Counter(server.MetricQuestionsAsked); asked != 0 {
		t.Errorf("reborn owner asked %d questions for a fenced job, want 0", asked)
	}
}

// TestStoppedNodeShipsLateEnd forces the shutdown interleaving behind the
// soak's double end: a job finishes after its replica's node has stopped,
// and the replica then dies. The end record journaled after Stop must still
// reach the successor, which must then leave the finished job alone instead
// of adopting and running it a second time.
func TestStoppedNodeShipsLateEnd(t *testing.T) {
	slots := []*slot{newSlot(t), newSlot(t), newSlot(t)}
	ids := []string{"r0", "r1", "r2"}
	peers := make([]Peer, 3)
	for i, id := range ids {
		peers[i] = Peer{ID: id, URL: slots[i].ts.URL}
	}
	base := t.TempDir()
	reps := make([]*replica, 3)
	for i, id := range ids {
		reps[i] = startReplica(t, id, peers, slots[i],
			filepath.Join(base, id+"-jobs.log"), filepath.Join(base, id+"-replica"), 20*time.Millisecond)
	}
	owner, succ := reps[0], reps[1]
	t.Cleanup(func() {
		for i := 1; i < 3; i++ {
			reps[i].kill(slots[i])
		}
	})

	// Park the owner's crowd, so the job waits on its first question until
	// this test answers it.
	close(owner.donech)
	raw, _ := json.Marshal(map[string]string{"query": dataset.IntroQ1().String()})
	req, err := http.NewRequest(http.MethodPost, slots[0].ts.URL+"/api/v1/clean", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedHeader, "test") // run it on r0, whose successor is r1
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(res.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted || !owner.srv.HasJob(job.ID) {
		t.Fatalf("submit = %d, job %d on r0 = %v; want 202 and a job on r0", res.StatusCode, job.ID, owner.srv.HasJob(job.ID))
	}
	replicated := func() (wal.JobRecord, bool) {
		for _, r := range succ.node.replicaLog("r0").Jobs() {
			if r.ID == job.ID {
				return r, true
			}
		}
		return wal.JobRecord{}, false
	}
	waitFor(t, "job start replicated to r1", 5*time.Second, func() bool {
		_, ok := replicated()
		return ok
	})

	// Stop the node, then let the job run to its end.
	owner.node.Stop()
	oracle := crowd.NewPerfect(owner.dg)
	waitFor(t, "job end journaled on r0", 10*time.Second, func() bool {
		for _, qu := range owner.srv.Queue().Pending() {
			if a, err := AnswerQuestion(context.Background(), qu, oracle); err == nil {
				_ = owner.srv.Queue().Answer(qu.ID, a)
			}
		}
		owner.node.repMu.Lock()
		defer owner.node.repMu.Unlock()
		for _, r := range owner.node.fold.Records() {
			if r.ID == job.ID {
				return r.Done
			}
		}
		return false
	})
	rec, _ := replicated()

	// Crash r0, then wait until r1 has declared it down and finished the
	// takeover pass that follows: probe failures counted after the one that
	// flipped r0 down come from a later round, which starts only once the
	// takeover callback has returned.
	slots[0].set(nil)
	owner.srv.Close()
	_ = owner.jl.Close()
	waitFor(t, "r1 to declare r0 down", 10*time.Second, func() bool {
		return !succ.node.mem.Reachable("r0")
	})
	failures := succ.srv.Obs().Counter(MetricProbeFailures)
	waitFor(t, "r1's takeover pass over r0", 10*time.Second, func() bool {
		return succ.srv.Obs().Counter(MetricProbeFailures) > failures
	})

	if !rec.Done || rec.State != string(server.JobDone) {
		t.Errorf("r1's replica of job %d: done=%v state=%q, want the end record r0 journaled after Stop (done)", job.ID, rec.Done, rec.State)
	}
	if succ.srv.HasJob(job.ID) {
		t.Errorf("r1 adopted job %d, which r0 had already finished: it runs twice", job.ID)
	}
	if got := succ.srv.Obs().Counter(MetricTakeoverJobs); got != 0 {
		t.Errorf("r1 took over %d job(s) from r0, want 0", got)
	}
}

// TestClusterRoutingConcentrates: identical submissions from one client land
// on one replica; the status endpoint reflects membership.
func TestClusterRoutingConcentrates(t *testing.T) {
	slots := []*slot{newSlot(t), newSlot(t), newSlot(t)}
	ids := []string{"r0", "r1", "r2"}
	peers := make([]Peer, 3)
	for i, id := range ids {
		peers[i] = Peer{ID: id, URL: slots[i].ts.URL}
	}
	base := t.TempDir()
	reps := make([]*replica, 3)
	for i, id := range ids {
		reps[i] = startReplica(t, id, peers, slots[i],
			filepath.Join(base, id+"-jobs.log"), filepath.Join(base, id+"-replica"), 50*time.Millisecond)
	}
	t.Cleanup(func() {
		for i := range reps {
			reps[i].kill(slots[i])
		}
	})

	// The same query through all three entry points must reach one replica.
	ownerOf := func(query, entry string) int {
		raw, _ := json.Marshal(map[string]string{"query": query})
		res, err := http.Post(entry+"/api/v1/clean", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusAccepted {
			t.Fatalf("submit via %s = %d, want 202", entry, res.StatusCode)
		}
		var job struct {
			ID int `json:"id"`
		}
		if err := json.NewDecoder(res.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		return job.ID % 3
	}
	q1 := dataset.IntroQ1().String()
	first := ownerOf(q1, slots[0].ts.URL)
	for i := 1; i < 3; i++ {
		if got := ownerOf(q1, slots[i].ts.URL); got != first {
			t.Errorf("same query via entry %d landed on replica %d, want %d", i, got, first)
		}
	}

	// Status endpoint: every peer visible, self marked, successor named.
	res, err := http.Get(slots[0].ts.URL + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st struct {
		Self      string `json:"self"`
		Successor string `json:"successor"`
		Peers     []struct {
			ID    string `json:"id"`
			Ready bool   `json:"ready"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != "r0" || st.Successor != "r1" || len(st.Peers) != 3 {
		t.Errorf("cluster status = %+v, want self r0, successor r1, 3 peers", st)
	}
	for _, p := range st.Peers {
		if !p.Ready {
			t.Errorf("peer %s not ready in a healthy cluster", p.ID)
		}
	}
}

// evalResult evaluates a query over a database directly.
func evalResult(t *testing.T, query string, d *db.Database) [][]string {
	t.Helper()
	q, err := cq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, 0)
	for _, tu := range eval.Result(q, d) {
		rows = append(rows, []string(tu))
	}
	return rows
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows [][]string) map[string]int {
		m := make(map[string]int)
		for _, r := range rows {
			m[fmt.Sprint(r)]++
		}
		return m
	}
	ka, kb := key(a), key(b)
	for k, v := range ka {
		if kb[k] != v {
			return false
		}
	}
	return true
}
