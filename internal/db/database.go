package db

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/schema"
)

// lastDBID hands out process-unique database identities (see Database.ID).
var lastDBID atomic.Uint64

// Database is an instance of a schema: one Relation per relation symbol.
// It is the paper's D (or the ground truth DG). Databases are not safe for
// concurrent mutation; the cleaner serializes edits.
type Database struct {
	schema *schema.Schema
	rels   map[string]*Relation
	id     uint64 // process-unique identity, for evaluation caches
	gen    uint64 // edit generation, bumped by every mutating change
}

// New creates an empty database instance of the given schema.
func New(s *schema.Schema) *Database {
	d := &Database{schema: s, rels: make(map[string]*Relation, s.Len()), id: lastDBID.Add(1)}
	for _, name := range s.Names() {
		rel, _ := s.Relation(name)
		d.rels[name] = NewRelation(name, rel.Arity())
	}
	return d
}

// ID returns the database's process-unique identity. Clones get fresh
// identities; the evaluation cache keys entries by (ID, Generation) so two
// instances never share cache lines.
func (d *Database) ID() uint64 { return d.id }

// Generation returns the edit-generation counter: it increases monotonically
// with every mutating InsertFact/DeleteFact/Apply (no-op edits don't bump
// it). Evaluation results computed at one generation remain valid exactly
// until the counter moves, which is what makes generation-stamped caching of
// Q(D) sound. Reading it concurrently with a mutation follows the same rule
// as the rest of the Database: mutations must be serialized by the caller.
func (d *Database) Generation() uint64 { return d.gen }

// Schema returns the database schema.
func (d *Database) Schema() *schema.Schema { return d.schema }

// Rel returns the named relation's read view — the Store interface's
// backend-neutral accessor. It returns an untyped nil for unknown relations
// so `Rel(x) == nil` behaves as callers expect.
func (d *Database) Rel(name string) Rel {
	if r := d.rels[name]; r != nil {
		return r
	}
	return nil
}

// Has reports whether the fact is present in the database.
func (d *Database) Has(f Fact) bool {
	r := d.rels[f.Rel]
	return r != nil && r.Has(f.Args)
}

// InsertFact adds the fact, returning true if it was newly inserted.
// It returns an error for unknown relations, arity mismatches and values
// holding a reserved byte (ErrReservedByte).
func (d *Database) InsertFact(f Fact) (bool, error) {
	r := d.rels[f.Rel]
	if r == nil {
		return false, fmt.Errorf("db: unknown relation %q", f.Rel)
	}
	if len(f.Args) != r.Arity() {
		return false, fmt.Errorf("db: arity mismatch for %s: got %d, want %d", f.Rel, len(f.Args), r.Arity())
	}
	if err := ValidateValues(f.Args); err != nil {
		return false, err
	}
	inserted := r.Insert(f.Args)
	if inserted {
		d.gen++
	}
	return inserted, nil
}

// DeleteFact removes the fact, returning true if it was present.
func (d *Database) DeleteFact(f Fact) (bool, error) {
	r := d.rels[f.Rel]
	if r == nil {
		return false, fmt.Errorf("db: unknown relation %q", f.Rel)
	}
	deleted := r.Delete(f.Args)
	if deleted {
		d.gen++
	}
	return deleted, nil
}

// Apply applies a single edit (the paper's D ⊕ e). Edits are idempotent:
// inserting a present fact or deleting an absent one changes nothing and
// reports changed = false.
func (d *Database) Apply(e Edit) (changed bool, err error) {
	if e.Op == Insert {
		return d.InsertFact(e.Fact)
	}
	return d.DeleteFact(e.Fact)
}

// ApplyAll applies the edits in order, returning the number that changed the
// database. It stops at the first error.
func (d *Database) ApplyAll(edits []Edit) (changed int, err error) {
	for _, e := range edits {
		ch, err := d.Apply(e)
		if err != nil {
			return changed, err
		}
		if ch {
			changed++
		}
	}
	return changed, nil
}

// Len returns the total number of facts across all relations.
func (d *Database) Len() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Facts returns every fact in the database in deterministic order
// (relations sorted by name, tuples lexicographically).
func (d *Database) Facts() []Fact {
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Fact, 0, d.Len())
	for _, n := range names {
		for _, t := range d.rels[n].Tuples() {
			out = append(out, Fact{Rel: n, Args: t})
		}
	}
	return out
}

// Clone returns an independent copy sharing the (immutable) schema. The
// copy has a fresh identity and starts at generation zero. Cloning is
// copy-on-write: it costs O(relations), not O(|D|) — each relation's maps
// are shared until either side mutates them (see Relation.Clone). For the
// concurrency contract, Clone counts as a mutation of d.
func (d *Database) Clone() *Database {
	out := &Database{schema: d.schema, rels: make(map[string]*Relation, len(d.rels)), id: lastDBID.Add(1)}
	for n, r := range d.rels {
		out.rels[n] = r.Clone()
	}
	return out
}

// deepClone is the historical O(|D|) physical copy, kept for the
// clone-vs-snapshot benchmark baseline.
func (d *Database) deepClone() *Database {
	out := &Database{schema: d.schema, rels: make(map[string]*Relation, len(d.rels)), id: lastDBID.Add(1)}
	for n, r := range d.rels {
		nr := NewRelation(r.name, r.arity)
		r.Each(func(t Tuple) bool {
			nr.Insert(t)
			return true
		})
		out.rels[n] = nr
	}
	return out
}

// Snapshot captures an immutable read view of the database at its current
// generation. The snapshot keeps reporting d's identity and the captured
// generation, so evaluation-cache entries warmed through it serve the live
// database at the same generation (and vice versa). Like Clone, taking a
// snapshot counts as a mutation of d for the concurrency contract; the
// returned snapshot may then be read concurrently with further edits to d.
func (d *Database) Snapshot() Snapshot {
	return &memSnapshot{d: d.Clone(), id: d.id, gen: d.gen}
}

// Stats describes the store for observability.
func (d *Database) Stats() Stats {
	st := Stats{
		Backend:    "mem",
		Generation: d.gen,
		Relations:  make(map[string]int, len(d.rels)),
		Shards:     1,
	}
	for n, r := range d.rels {
		st.Relations[n] = r.Len()
		st.TotalFacts += r.Len()
	}
	return st
}

// Sync is a no-op: the in-memory store has no durability.
func (d *Database) Sync() error { return nil }

// Close is a no-op for the in-memory store.
func (d *Database) Close() error { return nil }

// Distance returns the size of the symmetric difference |D − D′| + |D′ − D|.
// The paper writes |D − D′| for this quantity and uses it to show each
// oracle-derived edit moves D closer to DG (Prop 3.3).
func (d *Database) Distance(o *Database) int {
	n := 0
	for name, r := range d.rels {
		or := o.rels[name]
		r.Each(func(t Tuple) bool {
			if or == nil || !or.Has(t) {
				n++
			}
			return true
		})
	}
	for name, or := range o.rels {
		r := d.rels[name]
		or.Each(func(t Tuple) bool {
			if r == nil || !r.Has(t) {
				n++
			}
			return true
		})
	}
	return n
}
