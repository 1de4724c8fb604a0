package db

import (
	"fmt"

	"repro/internal/schema"
)

// Rel is the read view of one relation instance: membership, scans, and
// index-assisted match counting. *Relation implements it for both stores;
// the evaluator plans its joins against this interface only.
type Rel interface {
	// Name returns the relation symbol.
	Name() string
	// Arity returns the number of columns.
	Arity() int
	// Len returns the number of tuples.
	Len() int
	// Has reports whether the tuple is present.
	Has(t Tuple) bool
	// Tuples returns all tuples in deterministic (lexicographic) order.
	Tuples() []Tuple
	// Each calls fn for every tuple in unspecified order until fn returns
	// false. fn must not mutate the relation.
	Each(fn func(Tuple) bool)
	// Scan returns the tuples matching all bindings (every tuple with no
	// bindings), in unspecified order. The result is read-only and valid
	// until the relation's next mutation: the in-memory relation returns its
	// index's own storage. The tuples in it are the stored tuples, which no
	// store ever rewrites, so a caller may keep one without copying it.
	Scan(bindings []Binding) []Tuple
	// MatchCount returns the number of tuples matching all bindings without
	// materializing them.
	MatchCount(bindings []Binding) int
}

// Reader is the read-only storage view the evaluator and every other
// consumer of Q(D) works against. Both live stores and snapshots implement
// it. The identity pair (ID, Generation) stamps evaluation-cache entries:
// two Readers with equal IDs and generations are guaranteed to hold the
// same facts.
type Reader interface {
	// ID returns the store's process-unique identity.
	ID() uint64
	// Generation returns the edit-generation counter: it increases
	// monotonically with every mutating edit and is frozen on snapshots.
	Generation() uint64
	// Schema returns the schema the store instantiates.
	Schema() *schema.Schema
	// Rel returns the named relation's read view, or nil if the schema has
	// no such relation.
	Rel(name string) Rel
	// Has reports whether the fact is present.
	Has(f Fact) bool
	// Len returns the total number of facts across all relations.
	Len() int
	// Facts returns every fact in deterministic order (relations sorted by
	// name, tuples lexicographically).
	Facts() []Fact
}

// Snapshot is an immutable read view of a store at one generation: reads
// against it are stable while edits keep landing on the originating store.
// ID and Generation report the originating store's identity and the
// generation at capture, so evaluation-cache entries warmed through a
// snapshot stay valid for the live store at the same generation (and vice
// versa).
type Snapshot interface {
	Reader
}

// Store is the pluggable storage API: everything the cleaning loop and the
// server need from the fact store. The in-memory *Database and
// the disk-backed *DiskStore implement it.
//
// The concurrency contract matches the historical *db.Database one:
// concurrent readers are safe, but mutations (InsertFact, Apply, Snapshot)
// must be serialized by the caller against both readers and each other on
// the same store. A snapshot is an independent store: reading it
// concurrently with the original is safe once the Snapshot call itself has
// returned.
type Store interface {
	Reader
	// InsertFact adds the fact, returning true if it was newly inserted.
	// It returns an error for unknown relations, arity mismatches and values
	// holding a reserved byte (ErrReservedByte).
	InsertFact(f Fact) (bool, error)
	// Apply applies a single edit (the paper's D ⊕ e). Edits are
	// idempotent: re-inserting or re-deleting changes nothing.
	Apply(e Edit) (changed bool, err error)
	// Snapshot captures an immutable read view at the current generation.
	Snapshot() Snapshot
	// Stats describes the store: backend, per-relation fact counts, and
	// on-disk footprint.
	Stats() Stats
	// Sync makes all applied edits durable (a no-op for purely in-memory
	// stores). After Sync returns, a process kill loses nothing.
	Sync() error
	// Close releases any resources (files, buffers). The store must not be
	// used afterwards; in-memory stores treat Close as a no-op.
	Close() error
}

// Stats describes a store for observability: the /api/v1/db endpoint and
// the qoco -dbinfo flag render it.
type Stats struct {
	// Backend is "mem" or "disk".
	Backend string `json:"backend"`
	// Generation is the current edit-generation counter.
	Generation uint64 `json:"generation"`
	// TotalFacts is the fact count across all relations.
	TotalFacts int `json:"total_facts"`
	// Relations maps each relation name to its fact count.
	Relations map[string]int `json:"relations"`
	// Symbols is the interned-constant count (0 for mem).
	Symbols int `json:"symbols,omitempty"`
	// DiskBytes is the on-disk footprint in bytes (0 for mem).
	DiskBytes int64 `json:"disk_bytes"`

	// FormatVersion is the on-disk record format (disk stores only; 0 for
	// mem): 3, the one log of checksummed records. Older stores are
	// migrated to it when opened.
	FormatVersion int `json:"format_version,omitempty"`
	// GarbageRatio is the log's dead fact records over all its fact
	// records — the number the compaction trigger acts on (disk stores
	// only).
	GarbageRatio float64 `json:"garbage_ratio,omitempty"`

	// Recovery counters, frozen when the store was opened.
	TornTails          int64 `json:"torn_tails,omitempty"`
	TornBytesTruncated int64 `json:"torn_bytes_truncated,omitempty"`
	RecordsReplayed    int64 `json:"records_replayed,omitempty"`
	// QuarantinedFiles counts *.quarantined files still present in the
	// store directory (corrupt files moved aside by a previous open whose
	// QUARANTINE marker an operator has since cleared).
	QuarantinedFiles int `json:"quarantined_files,omitempty"`

	// Compaction counters for this open.
	CompactionRuns           int64 `json:"compaction_runs,omitempty"`
	CompactionReclaimedBytes int64 `json:"compaction_reclaimed_bytes,omitempty"`
}

// Distance returns the size of the symmetric difference |D − D′| + |D′ − D|
// between two readers — the paper's distance measure, generalized over
// storage backends.
func Distance(a, b Reader) int {
	n := 0
	for _, name := range a.Schema().Names() {
		ar, br := a.Rel(name), b.Rel(name)
		if ar != nil {
			ar.Each(func(t Tuple) bool {
				if br == nil || !br.Has(t) {
					n++
				}
				return true
			})
		}
	}
	for _, name := range b.Schema().Names() {
		ar, br := a.Rel(name), b.Rel(name)
		if br != nil {
			br.Each(func(t Tuple) bool {
				if ar == nil || !ar.Has(t) {
					n++
				}
				return true
			})
		}
	}
	return n
}

// Equal reports whether two readers contain exactly the same facts.
func Equal(a, b Reader) bool { return Distance(a, b) == 0 }

// Diff returns the edits that transform a into b: deletions of facts in
// a − b followed by insertions of facts in b − a, in deterministic order.
func Diff(a, b Reader) []Edit {
	var edits []Edit
	for _, f := range a.Facts() {
		if !b.Has(f) {
			edits = append(edits, Deletion(f))
		}
	}
	for _, f := range b.Facts() {
		if !a.Has(f) {
			edits = append(edits, Insertion(f))
		}
	}
	return edits
}

// Copy inserts every fact of src into dst, returning the number inserted.
// It is how datasets built as in-memory databases are materialized into a
// disk-backed store.
func Copy(dst Store, src Reader) (int, error) {
	n := 0
	for _, f := range src.Facts() {
		ins, err := dst.InsertFact(f)
		if err != nil {
			return n, fmt.Errorf("db: copying %v: %w", f, err)
		}
		if ins {
			n++
		}
	}
	return n, nil
}

// DeepCopy materializes any reader into a fresh in-memory Database — an
// explicit O(|D|) copy. The old Database.Clone had this cost on every call;
// Clone is now a copy-on-write fork, and DeepCopy remains for callers (and
// benchmarks) that genuinely want a physically independent instance.
func DeepCopy(r Reader) *Database {
	d := New(r.Schema())
	for _, name := range r.Schema().Names() {
		src := r.Rel(name)
		if src == nil {
			continue
		}
		dst := d.rels[name]
		src.Each(func(t Tuple) bool {
			dst.Insert(t)
			return true
		})
	}
	return d
}

// memSnapshot is the in-memory Snapshot: a copy-on-write fork of the
// Database frozen at capture, reporting the source's identity and captured
// generation so cache entries are shared with the live store at that
// generation.
type memSnapshot struct {
	d   *Database
	id  uint64
	gen uint64
}

func (s *memSnapshot) ID() uint64             { return s.id }
func (s *memSnapshot) Generation() uint64     { return s.gen }
func (s *memSnapshot) Schema() *schema.Schema { return s.d.Schema() }
func (s *memSnapshot) Rel(name string) Rel    { return s.d.Rel(name) }
func (s *memSnapshot) Has(f Fact) bool        { return s.d.Has(f) }
func (s *memSnapshot) Len() int               { return s.d.Len() }
func (s *memSnapshot) Facts() []Fact          { return s.d.Facts() }

// Interface conformance.
var (
	_ Store    = (*Database)(nil)
	_ Snapshot = (*memSnapshot)(nil)
	_ Rel      = (*Relation)(nil)
)
