package eval

import (
	"strings"
	"sync"

	"repro/internal/cq"
	"repro/internal/db"
)

// The evaluation cache memoizes Result, ResultUnion, Witnesses and Holds
// per database generation. QOCO's cleaning loop re-evaluates Q(D) and
// re-enumerates witnesses between crowd questions, and each oracle round
// changes at most a handful of facts — so across a run most evaluations hit
// an unchanged database and can be answered from the previous round's work.
// Entries are stamped with (db.ID, db.Generation): any InsertFact/DeleteFact
// bumps the generation and implicitly invalidates every entry of that
// database, so a stale result can never be served. The cache is process-wide
// and safe for concurrent readers; its correctness contract is the same as
// the Database's — edits must be serialized against reads by the caller.

// cacheMaxDBs bounds how many store instances the cache tracks at once;
// cacheMaxGens bounds the generations kept per store (snapshots can keep an
// older generation hot while edits land on the live store); cacheMaxEntries
// bounds the entries kept per store and generation. Exceeding any cap drops
// whole cache sections (never partial entries), which affects performance
// only, never correctness.
const (
	cacheMaxDBs     = 64
	cacheMaxGens    = 4
	cacheMaxEntries = 16384
)

// dbCache holds every memoized evaluation against one database at one
// generation. A generation bump discards the maps wholesale.
type dbCache struct {
	gen       uint64
	results   map[string][]db.Tuple  // result/union key -> Q(D)
	witnesses map[string][][]db.Fact // witness key -> witness sets
	holds     map[string]bool        // satisfiability key -> Holds
}

func (c *dbCache) size() int { return len(c.results) + len(c.witnesses) + len(c.holds) }

func newDBCache(gen uint64) *dbCache {
	return &dbCache{
		gen:       gen,
		results:   make(map[string][]db.Tuple),
		witnesses: make(map[string][][]db.Fact),
		holds:     make(map[string]bool),
	}
}

// evalCache sections are keyed by (store ID, generation). Keeping a few
// generations per store lets reads through a snapshot (frozen at an older
// generation) and reads of the live store share the cache without evicting
// each other.
var evalCache = struct {
	sync.Mutex
	dbs map[uint64]map[uint64]*dbCache // store ID -> generation -> section
}{dbs: make(map[uint64]map[uint64]*dbCache)}

// InvalidateDB drops every cache section of the store with the given ID.
// The generation stamp already prevents stale reads; this hook exists so a
// finished job's sections are reclaimed immediately instead of lingering (up
// to cacheMaxGens generations per store) until cap-driven eviction. The
// cleaner calls it when a run finishes and the server calls it when a job
// reaches a terminal state. Idempotent and safe to call concurrently with
// evaluations.
func InvalidateDB(id uint64) {
	evalCache.Lock()
	_, ok := evalCache.dbs[id]
	if ok {
		delete(evalCache.dbs, id)
	}
	evalCache.Unlock()
	if ok {
		rec().Inc(MetricCacheDBInvalidations)
	}
}

// CacheStats is a point-in-time summary of one store's cache footprint,
// exposed so tests can assert that finished jobs do not leak sections.
type CacheStats struct {
	Sections int // cache sections (generations) held for the store
	Entries  int // memoized entries across those sections
}

// CacheStatsFor reports the cache footprint of the store with the given ID.
func CacheStatsFor(id uint64) CacheStats {
	evalCache.Lock()
	defer evalCache.Unlock()
	var s CacheStats
	for _, c := range evalCache.dbs[id] {
		s.Sections++
		s.Entries += c.size()
	}
	return s
}

// forDB returns the cache section for the store at the given generation,
// creating it if needed. Creating a section at a new generation while older
// ones exist counts as an invalidation (the store moved on); the oldest
// generation is evicted once the per-store cap is hit. Caller holds
// evalCache.Mutex.
func forDB(d db.Reader, gen uint64) *dbCache {
	gens := evalCache.dbs[d.ID()]
	if gens == nil {
		if len(evalCache.dbs) >= cacheMaxDBs {
			// Too many live stores: drop an arbitrary one to stay bounded.
			for id := range evalCache.dbs {
				delete(evalCache.dbs, id)
				break
			}
		}
		gens = make(map[uint64]*dbCache)
		evalCache.dbs[d.ID()] = gens
	}
	if c := gens[gen]; c != nil {
		return c
	}
	if len(gens) > 0 {
		rec().Inc(MetricCacheInvalidations)
		if len(gens) >= cacheMaxGens {
			oldest, first := uint64(0), true
			for g := range gens {
				if first || g < oldest {
					oldest, first = g, false
				}
			}
			delete(gens, oldest)
		}
	}
	c := newDBCache(gen)
	gens[gen] = c
	return c
}

// section returns the existing cache section for the reader's current
// generation, or nil. Caller holds evalCache.Mutex.
func section(d db.Reader) *dbCache {
	return evalCache.dbs[d.ID()][d.Generation()]
}

// fingerprint renders the query's canonical cache identity. Query.String is
// a parseable, deterministic rendering, so distinct queries cannot collide;
// its cost is proportional to the query size (a handful of atoms), not the
// database, keeping warm lookups O(|Q|).
func fingerprint(q *cq.Query) string { return q.String() }

// unionFingerprint is the canonical identity of a UCQ.
func unionFingerprint(u *cq.Union) string {
	var b strings.Builder
	for i, q := range u.Disjuncts {
		if i > 0 {
			b.WriteByte('\x01')
		}
		b.WriteString(q.String())
	}
	return b.String()
}

// Cache key namespaces. Each class of memoized call prefixes its key so a
// boolean Holds can never alias a Result of the same query.
func resultKey(fp string) string           { return "r\x00" + fp }
func unionResultKey(fp string) string      { return "u\x00" + fp }
func witnessCacheKey(fp, tk string) string { return "w\x00" + fp + "\x00" + tk }
func holdsKey(fp, seed string) string      { return "h\x00" + fp + "\x00" + seed }

// lookupTuples consults the cache for a []db.Tuple entry. The returned slice
// is a fresh copy of the cached spine (tuples themselves are shared and
// treated as immutable, as everywhere in the engine).
func lookupTuples(d db.Reader, key string) ([]db.Tuple, bool) {
	evalCache.Lock()
	defer evalCache.Unlock()
	c := section(d)
	if c == nil {
		rec().Inc(MetricCacheMisses)
		return nil, false
	}
	v, ok := c.results[key]
	if !ok {
		rec().Inc(MetricCacheMisses)
		return nil, false
	}
	rec().Inc(MetricCacheHits)
	return append([]db.Tuple(nil), v...), true
}

// storeTuples records a []db.Tuple entry computed at generation gen. The
// entry is dropped unless the database is still at gen (an edit that raced
// the evaluation — only possible for callers that broke the serialization
// contract — must not poison the cache).
func storeTuples(d db.Reader, gen uint64, key string, v []db.Tuple) {
	if d.Generation() != gen {
		return
	}
	evalCache.Lock()
	defer evalCache.Unlock()
	c := forDB(d, gen)
	if c.size() >= cacheMaxEntries {
		c = newDBCache(gen)
		evalCache.dbs[d.ID()][gen] = c
	}
	c.results[key] = append([]db.Tuple(nil), v...)
}

// lookupWitnesses / storeWitnesses do the same for witness-set entries.
func lookupWitnesses(d db.Reader, key string) ([][]db.Fact, bool) {
	evalCache.Lock()
	defer evalCache.Unlock()
	c := section(d)
	if c == nil {
		rec().Inc(MetricCacheMisses)
		return nil, false
	}
	v, ok := c.witnesses[key]
	if !ok {
		rec().Inc(MetricCacheMisses)
		return nil, false
	}
	rec().Inc(MetricCacheHits)
	return append([][]db.Fact(nil), v...), true
}

func storeWitnesses(d db.Reader, gen uint64, key string, v [][]db.Fact) {
	if d.Generation() != gen {
		return
	}
	evalCache.Lock()
	defer evalCache.Unlock()
	c := forDB(d, gen)
	if c.size() >= cacheMaxEntries {
		c = newDBCache(gen)
		evalCache.dbs[d.ID()][gen] = c
	}
	c.witnesses[key] = append([][]db.Fact(nil), v...)
}

// lookupHolds / storeHolds memoize boolean satisfiability checks.
func lookupHolds(d db.Reader, key string) (bool, bool) {
	evalCache.Lock()
	defer evalCache.Unlock()
	c := section(d)
	if c == nil {
		rec().Inc(MetricCacheMisses)
		return false, false
	}
	v, ok := c.holds[key]
	if !ok {
		rec().Inc(MetricCacheMisses)
		return false, false
	}
	rec().Inc(MetricCacheHits)
	return v, true
}

func storeHolds(d db.Reader, gen uint64, key string, v bool) {
	if d.Generation() != gen {
		return
	}
	evalCache.Lock()
	defer evalCache.Unlock()
	c := forDB(d, gen)
	if c.size() >= cacheMaxEntries {
		c = newDBCache(gen)
		evalCache.dbs[d.ID()][gen] = c
	}
	c.holds[key] = v
}
