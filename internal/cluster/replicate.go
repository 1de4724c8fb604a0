package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/server"
	"repro/internal/wal"
)

// shipRequest carries one journal event to the successor. Seq is the
// sender's cursor after the event; Boot namespaces the cursor to one process
// incarnation so a restarted sender cannot silently resume a stale stream.
type shipRequest struct {
	Origin string       `json:"origin"`
	Boot   string       `json:"boot"`
	Seq    uint64       `json:"seq"`
	Event  wal.JobEvent `json:"event"`
}

// syncRequest replaces the receiver's replica state wholesale: the sender's
// folded unfinished-job records at cursor (Boot, Seq).
type syncRequest struct {
	Origin string          `json:"origin"`
	Boot   string          `json:"boot"`
	Seq    uint64          `json:"seq"`
	Jobs   []wal.JobRecord `json:"jobs"`
}

// shipResponse acknowledges (or rejects) an append. On a rejection the
// receiver's cursor tells the sender it must full-sync.
type shipResponse struct {
	OK   bool   `json:"ok"`
	Boot string `json:"boot"`
	Seq  uint64 `json:"seq"`
}

// --- sender ---

// ship is the JobLog shipper hook. It runs synchronously inside the journal
// append, after the event is durable locally, so the successor's copy is
// always a prefix of (or equal to) this node's own journal. It must not
// append to the journal itself. It keeps shipping after Stop: the journal's
// Close, not the node's, ends the stream.
func (n *Node) ship(ev wal.JobEvent) {
	n.repMu.Lock()
	defer n.repMu.Unlock()
	if err := n.fold.Apply(ev); err != nil {
		n.logf("cluster: folding shipped event: %v", err)
		return
	}
	n.seq++
	n.shipLocked(&ev)
}

// resync pushes a full snapshot to the successor when membership changes (or
// at startup): the successor may be new, or a restarted peer whose replica
// cursor no longer matches ours.
func (n *Node) resync() {
	if !n.cfg.Replicate {
		return
	}
	n.repMu.Lock()
	defer n.repMu.Unlock()
	n.shipLocked(nil)
}

// shipLocked sends ev (or, when the stream is not established, a full sync)
// to the current successor. Called with repMu held. A nil ev only
// establishes the stream.
func (n *Node) shipLocked(ev *wal.JobEvent) {
	succ, ok := n.ring.Successor(n.self.ID, n.mem.Reachable)
	if !ok {
		n.obs.Inc(MetricShipSkipped)
		n.synced = false
		return
	}
	if succ.ID != n.target {
		n.target = succ.ID
		n.synced = false
	}
	if n.synced && ev != nil {
		if n.postEvent(succ, *ev) {
			n.obs.Inc(MetricShipEvents)
			return
		}
		n.synced = false
	}
	if n.synced {
		return
	}
	// Establish (or heal) the stream with a full snapshot at our cursor. The
	// snapshot is the fold with ev already applied, so a pending event needs
	// no resend after a successful sync.
	if n.postSync(succ) {
		n.synced = true
		n.obs.Inc(MetricShipSyncs)
		if ev != nil {
			n.obs.Inc(MetricShipEvents)
		}
	} else {
		n.obs.Inc(MetricShipErrors)
		n.logf("cluster: replication to %s is behind (will retry)", succ.ID)
	}
}

// postEvent ships one event; false means the stream must be re-established.
func (n *Node) postEvent(succ Peer, ev wal.JobEvent) bool {
	var res shipResponse
	err := n.postJSON(succ.URL+"/api/v1/cluster/replicate",
		shipRequest{Origin: n.self.ID, Boot: n.boot, Seq: n.seq, Event: ev}, &res)
	return err == nil && res.OK
}

// postSync ships the full folded state at the current cursor.
func (n *Node) postSync(succ Peer) bool {
	var res shipResponse
	err := n.postJSON(succ.URL+"/api/v1/cluster/sync",
		syncRequest{Origin: n.self.ID, Boot: n.boot, Seq: n.seq, Jobs: n.fold.Records()}, &res)
	return err == nil && res.OK
}

func (n *Node) postJSON(url string, body, out interface{}) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return &httpError{status: res.StatusCode}
	}
	return json.NewDecoder(res.Body).Decode(out)
}

type httpError struct{ status int }

func (e *httpError) Error() string { return http.StatusText(e.status) }

// --- receiver ---

// handleReplicate accepts one journal event from a peer's shipper.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req shipRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	rl := n.replicaLog(req.Origin)
	if rl == nil {
		http.Error(w, "unknown origin or replication disabled", http.StatusServiceUnavailable)
		return
	}
	n.mem.MarkUp(req.Origin)
	accepted, err := rl.Append(req.Boot, req.Seq, req.Event)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if accepted {
		n.obs.Inc(MetricReplicateAccepted)
	} else {
		n.obs.Inc(MetricReplicateRejected)
	}
	boot, seq := rl.State()
	writeJSON(w, shipResponse{OK: accepted, Boot: boot, Seq: seq})
}

// handleSync replaces the replica state for one origin with a full snapshot.
func (n *Node) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req syncRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	rl := n.replicaLog(req.Origin)
	if rl == nil {
		http.Error(w, "unknown origin or replication disabled", http.StatusServiceUnavailable)
		return
	}
	n.mem.MarkUp(req.Origin)
	if err := rl.Reset(req.Boot, req.Seq, req.Jobs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n.obs.Inc(MetricReplicateResets)
	boot, seq := rl.State()
	writeJSON(w, shipResponse{OK: true, Boot: boot, Seq: seq})
}

// handleClaims answers "which of these jobs do you hold?" — the boot fencing
// query. The requester names the job IDs it is about to recover (its own
// submissions and any jobs it had adopted — which is why the filter is an
// explicit ID list, not the requester's residue class); this node reports
// every named job in its registry, plus jobs fenced in the adopted set but
// not yet registered (the takeover window between fencing and Recover).
func (n *Node) handleClaims(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	want := make(map[int]bool)
	for _, part := range strings.Split(r.URL.Query().Get("ids"), ",") {
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			http.Error(w, "bad ids", http.StatusBadRequest)
			return
		}
		want[id] = true
	}
	seen := make(map[int]bool)
	jobs := []claimedJob{}
	for _, s := range n.srv.JobSummaries() {
		if !want[s.ID] || s.State == server.JobHandoff {
			continue
		}
		seen[s.ID] = true
		jobs = append(jobs, claimedJob{ID: s.ID, Query: s.Query, State: s.State})
	}
	n.mu.Lock()
	for id := range n.adopted {
		if want[id] && !seen[id] {
			jobs = append(jobs, claimedJob{ID: id, State: server.JobRunning})
		}
	}
	n.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	writeJSON(w, struct {
		Jobs []claimedJob `json:"jobs"`
	}{Jobs: jobs})
}

// fenceRequest asks a suspected-dead origin to stop the named jobs before
// the sender adopts them. An origin that answers at all is alive — its
// probes merely timed out — and the fence converts what would have been a
// double execution into a coordinated handoff.
type fenceRequest struct {
	Origin string `json:"origin"`
	IDs    []int  `json:"ids"`
}

// fenceResponse: Abandoned lists the jobs this call stopped (the sender may
// adopt exactly these); Jobs reports the named jobs the call did not touch —
// already terminal here, or handed off to an earlier adopter.
type fenceResponse struct {
	Abandoned []int        `json:"abandoned,omitempty"`
	Jobs      []claimedJob `json:"jobs,omitempty"`
}

// fence asks origin to abandon the named jobs. ok is false when origin is
// truly unreachable (the normal takeover case).
func (n *Node) fence(origin Peer, ids []int) (*fenceResponse, bool) {
	var res fenceResponse
	err := n.postJSON(origin.URL+"/api/v1/cluster/fence", fenceRequest{Origin: n.self.ID, IDs: ids}, &res)
	if err != nil {
		return nil, false
	}
	return &res, true
}

// handleFence stops the named jobs on behalf of a peer about to adopt them.
func (n *Node) handleFence(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req fenceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	if n.isStopped() {
		http.Error(w, "stopped", http.StatusServiceUnavailable)
		return
	}
	n.mem.MarkUp(req.Origin)
	abandoned, states := n.srv.Abandon(req.IDs)
	if len(abandoned) > 0 {
		n.obs.Add(MetricFencedJobs, int64(len(abandoned)))
		n.logf("cluster: abandoned %d job(s) at %s's request", len(abandoned), req.Origin)
	}
	res := fenceResponse{Abandoned: abandoned}
	for id, st := range states {
		res.Jobs = append(res.Jobs, claimedJob{ID: id, State: st})
	}
	sort.Slice(res.Jobs, func(i, j int) bool { return res.Jobs[i].ID < res.Jobs[j].ID })
	writeJSON(w, res)
}

// peerStatus is one row of the cluster status document.
type peerStatus struct {
	ID        string `json:"id"`
	URL       string `json:"url"`
	Self      bool   `json:"self,omitempty"`
	Reachable bool   `json:"reachable"`
	Ready     bool   `json:"ready"`
}

// handleStatus serves GET /api/v1/cluster: this node's view of the cluster.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	peers := make([]peerStatus, 0, len(n.cfg.Peers))
	for _, id := range n.ring.ids {
		p := n.ring.peers[id]
		peers = append(peers, peerStatus{
			ID: p.ID, URL: p.URL, Self: p.ID == n.self.ID,
			Reachable: n.mem.Reachable(p.ID), Ready: n.mem.Ready(p.ID),
		})
	}
	succID := ""
	if succ, ok := n.ring.Successor(n.self.ID, n.mem.Reachable); ok {
		succID = succ.ID
	}
	n.repMu.Lock()
	seq, target, synced := n.seq, n.target, n.synced
	n.repMu.Unlock()
	n.mu.Lock()
	adopted := len(n.adopted)
	n.mu.Unlock()
	writeJSON(w, struct {
		Self      string       `json:"self"`
		Boot      string       `json:"boot"`
		Peers     []peerStatus `json:"peers"`
		Successor string       `json:"successor,omitempty"`
		Replicate bool         `json:"replicate"`
		ShipSeq   uint64       `json:"ship_seq"`
		ShipTo    string       `json:"ship_to,omitempty"`
		Synced    bool         `json:"synced"`
		Adopted   int          `json:"adopted_jobs"`
	}{
		Self: n.self.ID, Boot: n.boot, Peers: peers, Successor: succID,
		Replicate: n.cfg.Replicate, ShipSeq: seq, ShipTo: target, Synced: synced, Adopted: adopted,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
