// Package cluster turns N qocoserver replicas into one crash-tolerant
// cleaning service. Three mechanisms compose (see docs/CLUSTER.md):
//
//   - Membership: a static peer list plus health-probe failure detection
//     against each peer's existing /readyz endpoint. A peer that answers is
//     reachable; a 200 additionally makes it ready (routable). A peer that
//     stops answering for three consecutive probes is declared down,
//     which is what triggers takeover.
//
//   - Routing: a consistent-hash ring over the peer list. Each job
//     submission (POST /api/v1/clean) is routed to the replica owning its
//     key — the query text plus the client's API key — by transparent
//     proxy or 307 redirect. Ownership concentrates a
//     client's repeated submissions of one query on one replica, which keeps
//     that replica's journal the single authority for the job.
//
//   - Replication: every event a replica's job journal durably appends (job
//     specs, crowd answers, terminal states) is streamed synchronously to
//     the replica's successor — the next reachable peer on the ID circle —
//     over POST /api/v1/cluster/replicate, with a (boot, seq) cursor
//     protocol that detects gaps and heals them with full-state syncs. When
//     a replica dies, its successor replays the replicated journal through
//     the existing Server.Recover path: in-flight jobs resume at their first
//     unanswered question, with every already-paid-for crowd answer
//     replayed instead of re-asked.
//
// Job IDs are partitioned by residue class (Server.SetJobIDSpace) so
// replicas can never mint colliding IDs and any ID names its origin. Two
// fencing protocols keep execution exactly-once across the failover
// boundary: a restarting replica asks the live peers which of its journaled
// jobs were claimed by takeover (GET /api/v1/cluster/claims?ids=...) before
// recovering the rest, and an adopting replica asks the suspected-dead
// origin to abandon the jobs first (POST /api/v1/cluster/fence) so a
// replica that was merely slow hands its work over instead of racing its
// own adopter.
package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Peer is one replica in the static membership.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"` // base URL, e.g. http://10.0.0.1:8080
}

// ParsePeers parses the -peers flag syntax: comma-separated id=url pairs,
// e.g. "r0=http://h0:8080,r1=http://h1:8080,r2=http://h2:8080".
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=url)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, got %d", len(peers))
	}
	return peers, nil
}

// Config configures a Node.
type Config struct {
	// Self is this replica's peer ID; it must appear in Peers.
	Self string
	// Peers is the full static membership, including self.
	Peers []Peer
	// Dir holds the replica journals (one per peer) this node receives.
	// Required when Replicate is set.
	Dir string
	// Replicate enables journal shipping and receipt. Without it the node
	// still routes submissions and probes peers, but jobs die with their
	// replica.
	Replicate bool
	// Redirect switches submission routing from transparent proxying to 307
	// redirects (clients must follow them).
	Redirect bool

	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration

	// Obs receives cluster.* metrics; nil disables.
	Obs *obs.Recorder
	// Logf logs membership transitions and takeovers; nil discards.
	Logf func(format string, args ...interface{})

	// probeTimeout bounds one probe (default ProbeInterval). failThreshold
	// is the number of consecutive failed probes before a peer is declared
	// down (default 3). client performs probes, forwards, and replication
	// calls (default an http.Client with a 5s timeout). The soak tightens
	// all three so that failover fits its kill cycles.
	probeTimeout  time.Duration
	failThreshold int
	client        *http.Client
}

// ringVNodes is the consistent-hash virtual node count per peer.
const ringVNodes = 64

// Cluster metric names.
const (
	MetricPeersReachable    = "cluster.peers.reachable" // gauge: peers answering probes (incl. self)
	MetricPeersReady        = "cluster.peers.ready"     // gauge: peers routable (incl. self)
	MetricProbeFailures     = "cluster.probe.failures"
	MetricRouteLocal        = "cluster.route.local"
	MetricRouteForwarded    = "cluster.route.forwarded"
	MetricRouteRedirects    = "cluster.route.redirects"
	MetricRouteFallbacks    = "cluster.route.fallbacks" // forward failed; served locally
	MetricShipEvents        = "cluster.ship.events"
	MetricShipErrors        = "cluster.ship.errors"
	MetricShipSkipped       = "cluster.ship.skipped" // no reachable successor
	MetricShipSyncs         = "cluster.ship.full_syncs"
	MetricReplicateAccepted = "cluster.replicate.accepted"
	MetricReplicateRejected = "cluster.replicate.rejected"
	MetricReplicateResets   = "cluster.replicate.resets"
	MetricTakeovers         = "cluster.takeovers"
	MetricTakeoverJobs      = "cluster.takeover.jobs"
	MetricFencedJobs        = "cluster.fenced.jobs" // running jobs stopped here at an adopter's request

	MetricBootHandoffs = "cluster.boot.handoffs" // journaled jobs skipped at boot: claimed elsewhere
)

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.probeTimeout <= 0 {
		cfg.probeTimeout = cfg.ProbeInterval
	}
	if cfg.failThreshold <= 0 {
		cfg.failThreshold = 3
	}
	if cfg.client == nil {
		cfg.client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return cfg
}

// sortedIDs returns the peer IDs in the canonical circle order.
func sortedIDs(peers []Peer) []string {
	ids := make([]string, 0, len(peers))
	for _, p := range peers {
		ids = append(ids, p.ID)
	}
	sort.Strings(ids)
	return ids
}
