package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Membership probes every other peer's /readyz on a fixed interval and
// tracks two facts per peer:
//
//   - reachable: the peer's HTTP server answered at all. Reachability has a
//     failure threshold (three consecutive probe failures flip it
//     down) because a single dropped probe must not trigger a takeover; a
//     reachable→down transition fires the onDown callback.
//
//   - ready: the probe returned 200. A draining or degraded peer answers
//     503 — it is alive (no takeover: its jobs are still running!) but new
//     submissions route around it. Readiness has no threshold; it tracks
//     the probe instantly.
//
// Inbound cluster traffic (replication appends, sync snapshots) also proves
// a peer is back: MarkUp short-circuits the probe loop so a restarted
// replica rejoins as fast as it starts talking.
type Membership struct {
	self      string
	peers     []Peer // excluding self
	interval  time.Duration
	timeout   time.Duration
	threshold int
	client    *http.Client
	logf      func(string, ...interface{})
	onDown    func(Peer) // fired (outside the lock) on reachable→down
	onChange  func()     // fired (outside the lock) on any state change
	obs       *obs.Recorder

	mu    sync.Mutex
	state map[string]*peerState
	stop  chan struct{}
	done  chan struct{}
}

type peerState struct {
	reachable bool
	ready     bool
	fails     int
}

func newMembership(cfg Config, onDown func(Peer), onChange func()) *Membership {
	m := &Membership{
		self:      cfg.Self,
		interval:  cfg.ProbeInterval,
		timeout:   cfg.probeTimeout,
		threshold: cfg.failThreshold,
		client:    cfg.client,
		logf:      cfg.Logf,
		onDown:    onDown,
		onChange:  onChange,
		obs:       cfg.Obs,
		state:     make(map[string]*peerState),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.Self {
			continue
		}
		m.peers = append(m.peers, p)
		// Peers start presumed up: a cold cluster must not take over jobs
		// from replicas that simply have not finished booting yet.
		m.state[p.ID] = &peerState{reachable: true, ready: true}
	}
	return m
}

// Start launches the probe loop.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(m.interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
			}
			m.probeAll()
		}
	}()
}

// Stop halts the probe loop and waits for it to exit.
func (m *Membership) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

// Reachable reports whether a peer's HTTP server answers; self always does.
func (m *Membership) Reachable(id string) bool {
	if id == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[id]
	return ok && st.reachable
}

// Ready reports whether a peer is routable; self always is (the local
// server applies its own admission/drain checks to what it accepts).
func (m *Membership) Ready(id string) bool {
	if id == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[id]
	return ok && st.ready
}

// MarkUp records out-of-band proof that a peer is alive (it sent us
// cluster traffic): its failure count resets and it is routable again.
func (m *Membership) MarkUp(id string) {
	m.mu.Lock()
	st, ok := m.state[id]
	changed := false
	if ok {
		if !st.reachable || !st.ready {
			changed = true
		}
		st.reachable, st.ready, st.fails = true, true, 0
	}
	m.mu.Unlock()
	if changed {
		m.logf("cluster: peer %s is back (inbound traffic)", id)
		m.notifyChange()
	}
}

// Probe performs one direct probe of p, bypassing the loop — takeover uses
// it to double-check a peer is really gone before adopting its jobs.
func (m *Membership) Probe(p Peer) (reachable, ready bool) {
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/readyz", nil)
	if err != nil {
		return false, false
	}
	res, err := m.client.Do(req)
	if err != nil {
		return false, false
	}
	res.Body.Close()
	return true, res.StatusCode == http.StatusOK
}

// probeAll probes every peer once (concurrently, so one hung peer does not
// delay detection of another) and applies the transitions.
func (m *Membership) probeAll() {
	type result struct {
		peer             Peer
		reachable, ready bool
	}
	results := make([]result, len(m.peers))
	var wg sync.WaitGroup
	for i, p := range m.peers {
		wg.Add(1)
		go func(i int, p Peer) {
			defer wg.Done()
			reachable, ready := m.Probe(p)
			results[i] = result{peer: p, reachable: reachable, ready: ready}
		}(i, p)
	}
	wg.Wait()

	var downs []Peer
	changed := false
	m.mu.Lock()
	for _, r := range results {
		st := m.state[r.peer.ID]
		if r.reachable {
			if !st.reachable {
				changed = true
				m.logf("cluster: peer %s is reachable again", r.peer.ID)
			}
			if st.ready != r.ready {
				changed = true
			}
			st.reachable, st.ready, st.fails = true, r.ready, 0
			continue
		}
		m.obs.Inc(MetricProbeFailures)
		st.fails++
		if st.ready {
			st.ready = false
			changed = true
		}
		if st.reachable && st.fails >= m.threshold {
			st.reachable = false
			changed = true
			downs = append(downs, r.peer)
		}
	}
	reachable, ready := 1, 1 // self
	for _, st := range m.state {
		if st.reachable {
			reachable++
		}
		if st.ready {
			ready++
		}
	}
	m.mu.Unlock()
	m.obs.SetGauge(MetricPeersReachable, float64(reachable))
	m.obs.SetGauge(MetricPeersReady, float64(ready))
	for _, p := range downs {
		m.logf("cluster: peer %s is down (%d failed probes)", p.ID, m.threshold)
		if m.onDown != nil {
			m.onDown(p)
		}
	}
	if changed {
		m.notifyChange()
	}
}

func (m *Membership) notifyChange() {
	if m.onChange != nil {
		m.onChange()
	}
}
