// Package check is the differential correctness harness: it generates
// seeded random QOCO instances (schemas, databases, CQ≠ and union queries,
// edit scripts), replays them through every optimized path and its naive
// reference — the indexed/cached evaluator vs NaiveResult, the
// incrementally maintained views and the IVM engine vs refresh-from-scratch
// and cold evaluation after every edit, the greedy hitting-set heuristics vs
// brute-force subset enumeration, the end-to-end cleaner vs the ground truth
// it is supposed to converge to, and the disk-backed store vs the in-memory one —
// and, when a property fails, shrinks the instance to a
// minimal counterexample with a re-runnable seed and Datalog rendering.
//
// Properties are plain functions from *Instance to error so the same code
// runs from `go test` sweeps, fuzz targets, and the minimizer. The parser
// and key-encoding fuzz targets live next to their packages (internal/cq,
// internal/wal, internal/server, internal/eval); this package holds the
// cross-package differential drivers. See docs/TESTING.md.
package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// Instance is one generated differential-test input: a schema, a ground
// truth DG, a dirty database D, a query (and a union embedding it), and an
// edit script. Every property consumes the parts it needs and ignores the
// rest, so one instance exercises several drivers.
type Instance struct {
	// Seed reproduces the instance: Generate(Seed) rebuilds it exactly.
	// Shrunk instances keep the seed of the original failure.
	Seed   int64
	Schema *schema.Schema
	// DG is the ground truth; D the dirty instance handed to the cleaner.
	DG *db.Database
	D  *db.Database
	// Query is a safe CQ≠ over Schema; Union embeds it with 0-2 more
	// disjuncts of the same head arity.
	Query *cq.Query
	Union *cq.Union
	// Edits is a random edit script (including deliberate no-ops) used by
	// the store-parity, crash-recovery and cache-invalidation properties.
	Edits []db.Edit
}

// Clone deep-copies the instance so shrinking can mutate candidates freely.
func (ins *Instance) Clone() *Instance {
	c := &Instance{Seed: ins.Seed, Schema: ins.Schema}
	if ins.DG != nil {
		c.DG = ins.DG.Clone()
	}
	if ins.D != nil {
		c.D = ins.D.Clone()
	}
	if ins.Query != nil {
		c.Query = cloneQuery(ins.Query)
	}
	if ins.Union != nil {
		u := &cq.Union{}
		for _, q := range ins.Union.Disjuncts {
			u.Disjuncts = append(u.Disjuncts, cloneQuery(q))
		}
		c.Union = u
	}
	c.Edits = append([]db.Edit(nil), ins.Edits...)
	return c
}

func cloneQuery(q *cq.Query) *cq.Query {
	c := &cq.Query{Name: q.Name}
	c.Head = append([]cq.Term(nil), q.Head...)
	for _, a := range q.Atoms {
		c.Atoms = append(c.Atoms, cq.Atom{Rel: a.Rel, Args: append([]cq.Term(nil), a.Args...)})
	}
	c.Ineqs = append([]cq.Ineq(nil), q.Ineqs...)
	for _, a := range q.Negs {
		c.Negs = append(c.Negs, cq.Atom{Rel: a.Rel, Args: append([]cq.Term(nil), a.Args...)})
	}
	return c
}

// Repro renders the instance as a self-contained reproduction recipe:
// the seed to regenerate it, the schema, both databases as fact lists, the
// query and union in Datalog text, and the edit script. This is what a
// failing property prints after shrinking.
func (ins *Instance) Repro() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed: %d (check.Generate(%d))\n", ins.Seed, ins.Seed)
	if ins.Schema != nil {
		b.WriteString("schema:\n")
		for _, name := range ins.Schema.Names() {
			r, _ := ins.Schema.Relation(name)
			fmt.Fprintf(&b, "  %s\n", r)
		}
	}
	writeDB := func(name string, d *db.Database) {
		if d == nil {
			return
		}
		fmt.Fprintf(&b, "%s (%d facts):\n", name, d.Len())
		for _, f := range sortedFacts(d) {
			fmt.Fprintf(&b, "  %v\n", f)
		}
	}
	writeDB("DG (ground truth)", ins.DG)
	writeDB("D (dirty)", ins.D)
	if ins.Query != nil {
		fmt.Fprintf(&b, "query: %s\n", ins.Query)
	}
	if ins.Union != nil && len(ins.Union.Disjuncts) > 1 {
		fmt.Fprintf(&b, "union: %s\n", ins.Union)
	}
	if len(ins.Edits) > 0 {
		fmt.Fprintf(&b, "edits (%d):\n", len(ins.Edits))
		for _, e := range ins.Edits {
			fmt.Fprintf(&b, "  %v\n", e)
		}
	}
	return b.String()
}

func sortedFacts(d *db.Database) []db.Fact {
	fs := d.Facts()
	sort.Slice(fs, func(i, j int) bool { return fs[i].Key() < fs[j].Key() })
	return fs
}

// Property is a differential check over one instance: nil means every
// compared path agreed, an error describes the divergence. Properties must
// not mutate the instance (clone the databases before editing) so the
// minimizer can re-run them on shared candidates.
type Property func(*Instance) error

// sortTuples canonicalizes a result set for comparison across evaluators
// whose enumeration orders differ.
func sortTuples(ts []db.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = strings.Join(t, "\x00")
	}
	sort.Strings(out)
	return out
}

// tuplesEqual compares two result sets as sets of tuples.
func tuplesEqual(a, b []db.Tuple) bool {
	as, bs := sortTuples(a), sortTuples(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// roundTripQuery asserts print → parse → print is the identity on a query;
// a generated query that fails this would silently weaken every property
// that serializes query text (journals, server payloads, repro recipes).
func roundTripQuery(q *cq.Query) error {
	text := q.String()
	q2, err := cq.Parse(text)
	if err != nil {
		return fmt.Errorf("round trip: Parse(%q): %w", text, err)
	}
	if !q2.Equal(q) {
		return fmt.Errorf("round trip changed the query: %q -> %q", text, q2)
	}
	return nil
}

// roundTripUnion is roundTripQuery for unions, exercising the splitTop
// quote handling with generated awkward constants.
func roundTripUnion(u *cq.Union) error {
	if u == nil {
		return nil
	}
	text := u.String()
	u2, err := cq.ParseUnion(text)
	if err != nil {
		return fmt.Errorf("union round trip: ParseUnion(%q): %w", text, err)
	}
	if !u2.Equal(u) {
		return fmt.Errorf("union round trip changed the union: %q -> %q", text, u2)
	}
	return nil
}

func formatTuples(ts []db.Tuple) string {
	ss := sortTuples(ts)
	for i, s := range ss {
		ss[i] = "(" + strings.ReplaceAll(s, "\x00", ",") + ")"
	}
	return "{" + strings.Join(ss, " ") + "}"
}
