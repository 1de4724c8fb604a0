package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over the static peer list. Each peer
// contributes vnodes points hashed from "<id>#<i>"; a key is owned by the
// peer of the first point at or clockwise of the key's hash. Aliveness is a
// query-time predicate, not ring state: a dead peer's points stay on the
// circle and ownership slides to the next alive point, so keys come back to
// their original owner the moment it returns (minimal reshuffling, and the
// owner's journal — replicated to its successor while it was down — is still
// the authority for its jobs).
type Ring struct {
	points []ringPoint
	ids    []string // sorted peer IDs: the successor circle
	peers  map[string]Peer
}

type ringPoint struct {
	hash uint32
	id   string
}

// NewRing builds the ring.
func NewRing(peers []Peer, vnodes int) *Ring {
	r := &Ring{
		ids:   sortedIDs(peers),
		peers: make(map[string]Peer, len(peers)),
	}
	for _, p := range peers {
		r.peers[p.ID] = p
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(p.ID + "#" + strconv.Itoa(i)), id: p.ID})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Owner returns the alive peer owning key. ok is false when no peer
// satisfies alive.
func (r *Ring) Owner(key string, alive func(id string) bool) (Peer, bool) {
	if len(r.points) == 0 {
		return Peer{}, false
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if alive(pt.id) {
			return r.peers[pt.id], true
		}
	}
	return Peer{}, false
}

// Successor returns the first alive peer strictly after `after` on the
// sorted-ID circle. This — not the hash circle — defines replication
// targets and takeover responsibility: every peer has exactly one live
// successor, so each journal has exactly one authoritative copy-holder.
func (r *Ring) Successor(after string, alive func(id string) bool) (Peer, bool) {
	n := len(r.ids)
	start := sort.SearchStrings(r.ids, after)
	for i := 1; i <= n; i++ {
		id := r.ids[(start+i)%n]
		if id == after {
			continue
		}
		if alive(id) {
			return r.peers[id], true
		}
	}
	return Peer{}, false
}

// Index returns a peer's position on the sorted-ID circle, -1 if unknown.
// It is the job-ID residue class of that peer (see Server.SetJobIDSpace).
func (r *Ring) Index(id string) int {
	i := sort.SearchStrings(r.ids, id)
	if i < len(r.ids) && r.ids[i] == id {
		return i
	}
	return -1
}

func ringHash(s string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(s))
	return h.Sum32()
}
