package db

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/schema"
)

// storeModel is the reference a DiskStore is compared with: the facts each
// relation holds and the insert and delete records the store's log holds.
type storeModel struct {
	facts   map[string]map[string]Tuple // relation -> tuple key -> tuple
	records int
}

func newStoreModel(s *schema.Schema) *storeModel {
	m := &storeModel{facts: make(map[string]map[string]Tuple)}
	for _, name := range s.Names() {
		m.facts[name] = make(map[string]Tuple)
	}
	return m
}

func (m *storeModel) clone() *storeModel {
	c := &storeModel{facts: make(map[string]map[string]Tuple), records: m.records}
	for name, ts := range m.facts {
		c.facts[name] = make(map[string]Tuple, len(ts))
		for k, t := range ts {
			c.facts[name][k] = t
		}
	}
	return c
}

// live is the model's fact count.
func (m *storeModel) live() int {
	n := 0
	for _, ts := range m.facts {
		n += len(ts)
	}
	return n
}

// apply mirrors one edit on the model and reports whether it changed it.
func (m *storeModel) apply(e Edit) bool {
	ts := m.facts[e.Fact.Rel]
	k := e.Fact.Args.Key()
	_, has := ts[k]
	if e.Op == Insert == has {
		return false
	}
	if e.Op == Insert {
		ts[k] = e.Fact.Args.Clone()
	} else {
		delete(ts, k)
	}
	m.records++
	return true
}

// compact mirrors Compact(0): the log keeps one record per live fact.
func (m *storeModel) compact() { m.records = m.live() }

// checkStore compares the reader with the model: Facts, Scan and MatchCount
// for 0–3 bindings drawn from the value pool, and — when ds is given — the
// log's record count and the garbage ratio Stats derives from it.
func checkStore(t *testing.T, step string, d Reader, ds *DiskStore, m *storeModel, pool []string, rng *rand.Rand) {
	t.Helper()
	var want []string
	for name, ts := range m.facts {
		for _, tu := range ts {
			want = append(want, Fact{Rel: name, Args: tu}.String())
		}
	}
	sort.Strings(want)
	var got []string
	for _, f := range d.Facts() {
		got = append(got, f.String())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Facts = %v, model %v", step, got, want)
	}
	for _, name := range d.Schema().Names() {
		rel := d.Rel(name)
		for trial := 0; trial < 12; trial++ {
			bs := make([]Binding, trial%4)
			for i := range bs {
				bs[i] = Binding{Col: rng.Intn(rel.Arity()), Value: pool[rng.Intn(len(pool))]}
			}
			var wantScan []string
			for _, tu := range m.facts[name] {
				if tupleMatches(tu, bs) {
					wantScan = append(wantScan, tu.Key())
				}
			}
			sort.Strings(wantScan)
			var gotScan []string
			for _, tu := range rel.Scan(bs) {
				gotScan = append(gotScan, tu.Key())
			}
			sort.Strings(gotScan)
			if fmt.Sprint(gotScan) != fmt.Sprint(wantScan) {
				t.Fatalf("%s: %s.Scan(%v) = %q, model %q", step, name, bs, gotScan, wantScan)
			}
			if n := rel.MatchCount(bs); n != len(wantScan) {
				t.Fatalf("%s: %s.MatchCount(%v) = %d, model %d", step, name, bs, n, len(wantScan))
			}
		}
	}
	if ds == nil {
		return
	}
	if ds.records != m.records {
		t.Fatalf("%s: log holds %d fact records, model %d", step, ds.records, m.records)
	}
	ratio := 0.0
	if m.records > 0 {
		ratio = float64(m.records-m.live()) / float64(m.records)
	}
	if got := ds.Stats().GarbageRatio; got != ratio {
		t.Fatalf("%s: GarbageRatio = %v, model %v", step, got, ratio)
	}
}

// TestDiskStoreBookkeeping runs seeded inserts, deletes and re-inserts
// through a DiskStore, with a Snapshot, Compact(0) and a reopen
// along the way, and after every step compares the store with a reference
// model: Facts, the log's record count (which drives Stats' garbage ratio
// and Compact's trigger), and Scan and MatchCount for 0–3 bindings.
func TestDiskStoreBookkeeping(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b", "c"}},
		schema.Relation{Name: "S", Attrs: []string{"a", "b"}},
	)
	pool := []string{"A", "B", "C", "D", "", "x y", "E"}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ds, err := OpenDisk(dir, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { ds.Close() }()
			m := newStoreModel(s)
			randomFact := func() Fact {
				name := s.Names()[rng.Intn(2)]
				rel, _ := s.Relation(name)
				args := make(Tuple, rel.Arity())
				for i := range args {
					args[i] = pool[rng.Intn(len(pool))]
				}
				return Fact{Rel: name, Args: args}
			}
			// edits applies n random edits to the store and its model.
			edits := func(step string, st Store, m *storeModel, n int) {
				for i := 0; i < n; i++ {
					e := Insertion(randomFact())
					if rng.Intn(3) == 0 {
						e = Deletion(e.Fact)
						for _, ts := range m.facts[e.Fact.Rel] {
							if rng.Intn(2) == 0 {
								e.Fact.Args = ts // delete a present tuple
								break
							}
						}
					}
					want := m.apply(e)
					if got, err := st.Apply(e); err != nil || got != want {
						t.Fatalf("%s: Apply(%v) = %v, %v; model %v", step, e, got, err, want)
					}
				}
			}
			check := func(step string) { checkStore(t, step, ds, ds, m, pool, rng) }

			edits("inserts", ds, m, 150)
			check("after edits")

			snap := ds.Snapshot()
			sm := m.clone()
			edits("edits after snapshot", ds, m, 60)
			checkStore(t, "snapshot", snap, nil, sm, pool, rng)
			check("after snapshot edits")

			if _, err := ds.Compact(0); err != nil {
				t.Fatal(err)
			}
			m.compact()
			check("after Compact(0)")

			edits("edits after compaction", ds, m, 60)
			check("after post-compaction edits")

			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			if ds, err = OpenDisk(dir, s, 0); err != nil {
				t.Fatal(err)
			}
			check("after reopen")

			edits("edits after reopen", ds, m, 60)
			check("after post-reopen edits")
		})
	}
}
