package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wal"
)

// forwardedHeader marks a submission already routed by a peer, breaking
// forwarding loops: a forwarded request is always served locally.
const forwardedHeader = "X-Qoco-Forwarded"

// maxRouteBody bounds how much of a submission body the router buffers to
// extract the routing key. The server's own decoder reads the same bytes.
const maxRouteBody = 1 << 20

// Node is one replica's cluster brain: it wraps a server.Server with
// submission routing, journal replication, failure detection, and takeover.
// Build with NewNode, then Start; serve Handler instead of the server's own.
type Node struct {
	cfg    Config
	srv    *server.Server
	jl     *wal.JobLog
	ring   *Ring
	mem    *Membership
	client *http.Client
	obs    *obs.Recorder
	logf   func(string, ...interface{})
	self   Peer
	boot   string // this process incarnation's replication epoch
	mux    *http.ServeMux

	// Sender-side replication state. repMu is taken inside the JobLog's
	// append lock (the shipper hook); nothing holding repMu may append to
	// the JobLog.
	repMu  sync.Mutex
	fold   *wal.Fold
	seq    uint64
	target string
	synced bool

	// Receiver-side and lifecycle state.
	mu       sync.Mutex
	replicas map[string]*wal.ReplicaLog // by origin peer ID
	adopted  map[int]bool               // job IDs claimed by takeover
	stopped  bool
}

// NewNode builds the cluster layer around srv. jl is the server's own job
// journal and boot the records OpenJobLog returned for it (both may be nil
// when the server runs without a journal, which disables replication). The
// caller still owns jl's lifecycle. Call BootRecover instead of
// srv.Recover, then Start.
func NewNode(srv *server.Server, jl *wal.JobLog, boot []wal.JobRecord, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	self := Peer{}
	for _, p := range cfg.Peers {
		if p.ID == cfg.Self {
			self = p
		}
	}
	if self.ID == "" {
		return nil, fmt.Errorf("cluster: self %q not in peer list", cfg.Self)
	}
	if cfg.Replicate && (jl == nil || cfg.Dir == "") {
		return nil, fmt.Errorf("cluster: replication requires a job journal and a replica-log dir")
	}
	n := &Node{
		cfg:      cfg,
		srv:      srv,
		jl:       jl,
		ring:     NewRing(cfg.Peers, ringVNodes),
		client:   cfg.client,
		obs:      cfg.Obs,
		logf:     cfg.Logf,
		self:     self,
		boot:     fmt.Sprintf("%s-%d-%d", cfg.Self, os.Getpid(), time.Now().UnixNano()),
		fold:     wal.NewFold(),
		replicas: make(map[string]*wal.ReplicaLog),
		adopted:  make(map[int]bool),
	}
	// Partition the job-ID space: IDs issued here are congruent to our circle
	// index mod the cluster size, so an ID names its origin replica.
	srv.SetJobIDSpace(n.ring.Index(self.ID), len(cfg.Peers))
	// Seed the sender fold with everything already in our journal: a full
	// sync must hand the successor our complete durable state, not just
	// events appended after this boot.
	for _, r := range boot {
		for _, ev := range wal.EventsOf(r) {
			if err := n.fold.Apply(ev); err != nil {
				return nil, fmt.Errorf("cluster: folding boot records: %w", err)
			}
		}
	}
	if cfg.Replicate {
		for _, p := range cfg.Peers {
			if p.ID == self.ID {
				continue
			}
			rl, err := wal.OpenReplicaLog(filepath.Join(cfg.Dir, "replica-"+p.ID+".log"))
			if err != nil {
				return nil, fmt.Errorf("cluster: opening replica log for %s: %w", p.ID, err)
			}
			n.replicas[p.ID] = rl
		}
		jl.SetShipper(n.ship)
	}
	n.mem = newMembership(cfg, n.takeover, n.resync)
	n.mux = http.NewServeMux()
	n.mux.HandleFunc("/api/v1/cluster/replicate", n.handleReplicate)
	n.mux.HandleFunc("/api/v1/cluster/sync", n.handleSync)
	n.mux.HandleFunc("/api/v1/cluster/claims", n.handleClaims)
	n.mux.HandleFunc("/api/v1/cluster/fence", n.handleFence)
	n.mux.HandleFunc("/api/v1/cluster", n.handleStatus)
	n.mux.HandleFunc("/api/v1/clean", n.routeClean)
	n.mux.Handle("/", srv.Handler())
	return n, nil
}

// Handler returns the cluster-aware HTTP handler: the server's surface plus
// the /api/v1/cluster endpoints, with job submissions routed by ownership.
func (n *Node) Handler() http.Handler { return n.mux }

// Start launches the membership prober and pushes the initial journal
// snapshot to the successor. Call after BootRecover.
func (n *Node) Start() {
	n.mem.Start()
	n.resync()
}

// Stop halts probing and closes the replica logs. In-flight jobs keep
// running on the server, and every event their journal still makes durable
// keeps shipping to the successor until the caller closes the journal: an
// end record written after Stop but never shipped would leave the successor
// holding the job as unfinished, and it would adopt and run the job again
// once this replica is gone.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	logs := make([]*wal.ReplicaLog, 0, len(n.replicas))
	for _, rl := range n.replicas {
		logs = append(logs, rl)
	}
	n.mu.Unlock()
	n.mem.Stop()
	for _, rl := range logs {
		_ = rl.Close()
	}
}

func (n *Node) isStopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// replicaLog returns the receiver journal for one origin peer, nil when the
// origin is unknown or replication is off.
func (n *Node) replicaLog(origin string) *wal.ReplicaLog {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return nil
	}
	return n.replicas[origin]
}

// --- submission routing ---

// routeKey derives the ring key for one submission: the query (or SQL) text
// plus the client identity, so one client's retries of one query land on one
// replica while distinct clients and queries spread across the cluster.
func routeKey(body []byte, r *http.Request) string {
	var req struct {
		Query string `json:"query"`
		SQL   string `json:"sql"`
	}
	_ = json.Unmarshal(body, &req) // a bad body routes locally and fails parsing there
	return req.Query + "\x00" + req.SQL + "\x00" + r.Header.Get("X-API-Key")
}

// routeClean intercepts POST /api/v1/clean: a submission owned by a ready
// peer is proxied (or redirected) there; everything else — owned locally,
// already forwarded, no body, owner down — is served by the local server.
// A forward that fails at the transport layer falls back to local execution:
// accepting the job on the wrong replica beats shedding it, and the journal
// that matters is the executing replica's own.
func (n *Node) routeClean(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.Header.Get(forwardedHeader) != "" {
		n.serveLocal(w, r, nil)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRouteBody))
	if err != nil {
		n.serveLocal(w, r, []byte{})
		return
	}
	owner, ok := n.ring.Owner(routeKey(body, r), n.mem.Ready)
	if !ok || owner.ID == n.self.ID {
		n.obs.Inc(MetricRouteLocal)
		n.serveLocal(w, r, body)
		return
	}
	if n.cfg.Redirect {
		n.obs.Inc(MetricRouteRedirects)
		w.Header().Set("Location", owner.URL+r.URL.RequestURI())
		w.Header().Set("X-Qoco-Cluster-Owner", owner.ID)
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		n.serveLocal(w, r, body)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	if k := r.Header.Get("X-API-Key"); k != "" {
		req.Header.Set("X-API-Key", k)
	}
	req.Header.Set(forwardedHeader, n.self.ID)
	res, err := n.client.Do(req)
	if err != nil {
		n.obs.Inc(MetricRouteFallbacks)
		n.logf("cluster: forward to %s failed (%v); serving locally", owner.ID, err)
		n.serveLocal(w, r, body)
		return
	}
	defer res.Body.Close()
	n.obs.Inc(MetricRouteForwarded)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Qoco-Cluster-Owner", owner.ID)
	w.WriteHeader(res.StatusCode)
	_, _ = io.Copy(w, res.Body)
}

// serveLocal hands the request to the local server, restoring the buffered
// body when the router consumed it.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	if body != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	n.srv.Handler().ServeHTTP(w, r)
}

// --- takeover ---

// takeover fires when the failure detector declares origin down: if this
// node is the dead peer's live successor, it adopts every unfinished job in
// the replicated journal — copying the records into its own journal (which
// ships them onward to its own successor), fencing them in the claims set,
// closing them out in the replica log, and resuming them through
// Server.Recover with the journaled answers replayed.
func (n *Node) takeover(origin Peer) {
	if n.isStopped() || n.srv.Draining() {
		return
	}
	// The probe loop lags a fast kill/restart cycle; re-probe directly so a
	// peer that is already back keeps its jobs.
	if reachable, _ := n.mem.Probe(origin); reachable {
		n.mem.MarkUp(origin.ID)
		return
	}
	if succ, ok := n.ring.Successor(origin.ID, n.mem.Reachable); !ok || succ.ID != n.self.ID {
		return
	}
	rl := n.replicaLog(origin.ID)
	if rl == nil {
		return
	}
	var live []wal.JobRecord
	for _, r := range rl.Jobs() {
		if !r.Done && !n.srv.HasJob(r.ID) {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	// Fence the origin before adopting: a replica whose probes merely timed
	// out (GC pause, overload) is alive and still running these jobs —
	// adopting them anyway would execute them twice. An origin that answers
	// the fence stops the jobs and hands them over; one that does not is
	// really dead.
	ids := make([]int, len(live))
	for i, r := range live {
		ids[i] = r.ID
	}
	if fr, alive := n.fence(origin, ids); alive {
		n.logf("cluster: %s is alive after all; fenced instead of assumed dead", origin.ID)
		n.mem.MarkUp(origin.ID)
		adoptable := make(map[int]bool, len(fr.Abandoned))
		for _, id := range fr.Abandoned {
			adoptable[id] = true
		}
		known := make(map[int]server.JobState, len(fr.Jobs))
		for _, c := range fr.Jobs {
			known[c.ID] = c.State
		}
		keep := live[:0]
		for _, r := range live {
			switch {
			case adoptable[r.ID]:
				keep = append(keep, r)
			case known[r.ID] == server.JobHandoff:
				// An earlier adopter already owns it; not ours to run.
			case known[r.ID] != "":
				// Already terminal on the origin; our replica copy just lags.
				_ = rl.Closeout(r.ID, string(known[r.ID]))
			default:
				// Unknown to the (rebooted) origin: some other claimant is
				// running it, or the origin's own recovery will.
			}
		}
		live = keep
		if len(live) == 0 {
			return
		}
	}
	// Fence locally before executing: once an ID is in the adopted set, the
	// origin's restart sees the claim and will not re-run the job.
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	for _, r := range live {
		n.adopted[r.ID] = true
	}
	n.mu.Unlock()
	n.logf("cluster: taking over %d job(s) from %s", len(live), origin.ID)
	n.obs.Inc(MetricTakeovers)
	n.obs.Add(MetricTakeoverJobs, int64(len(live)))
	for _, r := range live {
		n.adoptRecord(r)
		_ = rl.Closeout(r.ID, string(server.JobHandoff))
	}
	resumed, err := n.srv.Recover(live)
	if err != nil {
		n.logf("cluster: takeover recovery from %s: %v", origin.ID, err)
	}
	n.logf("cluster: resumed %d job(s) from %s", resumed, origin.ID)
}

// adoptRecord copies one journal record into this node's own job journal, so
// the adopted job is durable here — and, via the shipper, replicated onward
// to this node's own successor.
func (n *Node) adoptRecord(r wal.JobRecord) {
	if n.jl == nil {
		return
	}
	_ = n.jl.Start(r.ID, r.Query)
	keys := make([]string, 0, len(r.Answers))
	for k := range r.Answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var answers []wal.KeyedAnswer
	for _, k := range keys {
		for _, a := range r.Answers[k] {
			answers = append(answers, wal.KeyedAnswer{Key: k, Answer: json.RawMessage(a)})
		}
	}
	_ = n.jl.Answers(r.ID, answers)
}

// --- boot fencing ---

// BootRecover is the cluster-aware Server.Recover: before resuming the jobs
// this node's own journal shows unfinished, it asks the live peers which of
// them were already claimed by takeover while this node was down. Claimed
// jobs are closed out locally with a handoff event — running them here too
// would double-ask the crowd and double-edit the database. A claimant that
// already finished a job contributes its terminal state so the job registry
// stays continuous.
func (n *Node) BootRecover(records []wal.JobRecord) (resumed int, err error) {
	var open []int
	for _, r := range records {
		if !r.Done {
			open = append(open, r.ID)
		}
	}
	claims := map[int]claimedJob{}
	if len(open) > 0 {
		claims = n.collectClaims(open)
	}
	pass := make([]wal.JobRecord, 0, len(records))
	for _, r := range records {
		c, claimed := claims[r.ID]
		if r.Done || !claimed {
			pass = append(pass, r)
			continue
		}
		n.obs.Inc(MetricBootHandoffs)
		n.logf("cluster: job %d was claimed by a peer (state %s); fencing it locally", r.ID, c.State)
		if n.jl != nil {
			_ = n.jl.End(r.ID, string(server.JobHandoff))
		}
		if c.terminal() {
			// The claimant finished it: register the real outcome.
			pass = append(pass, wal.JobRecord{ID: r.ID, Query: r.Query, Done: true, State: string(c.State)})
		}
	}
	return n.srv.Recover(pass)
}

// claimedJob is one entry of a claims response.
type claimedJob struct {
	ID    int             `json:"id"`
	Query string          `json:"query"`
	State server.JobState `json:"state"`
}

func (c claimedJob) terminal() bool {
	switch c.State {
	case server.JobDone, server.JobFailed, server.JobCancelled, server.JobDegraded:
		return true
	}
	return false
}

// collectClaims asks every other peer which of the named jobs it holds.
// Unreachable peers contribute nothing — if both this node and a claimant
// are down at once, exactly-once degrades to at-least-once (see
// docs/CLUSTER.md).
func (n *Node) collectClaims(ids []int) map[int]claimedJob {
	out := make(map[int]claimedJob)
	for _, p := range n.cfg.Peers {
		if p.ID == n.self.ID {
			continue
		}
		// Chunk the ID list so a journal with thousands of open jobs cannot
		// overflow a URL.
		for lo := 0; lo < len(ids); lo += 256 {
			hi := lo + 256
			if hi > len(ids) {
				hi = len(ids)
			}
			parts := make([]string, 0, hi-lo)
			for _, id := range ids[lo:hi] {
				parts = append(parts, strconv.Itoa(id))
			}
			req, err := http.NewRequest(http.MethodGet,
				p.URL+"/api/v1/cluster/claims?ids="+strings.Join(parts, ","), nil)
			if err != nil {
				continue
			}
			res, err := n.client.Do(req)
			if err != nil {
				continue
			}
			var body struct {
				Jobs []claimedJob `json:"jobs"`
			}
			decErr := json.NewDecoder(res.Body).Decode(&body)
			res.Body.Close()
			if res.StatusCode != http.StatusOK || decErr != nil {
				continue
			}
			for _, c := range body.Jobs {
				prev, ok := out[c.ID]
				if !ok || (!prev.terminal() && c.terminal()) {
					out[c.ID] = c
				}
			}
		}
	}
	return out
}
