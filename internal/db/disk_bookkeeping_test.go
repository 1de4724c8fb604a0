package db

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/schema"
)

// storeModel is the reference a DiskStore is compared with: the facts each
// relation holds and, for a store that owns its files, each segment's
// record count.
type storeModel struct {
	facts   map[string]map[string]Tuple // relation -> tuple key -> tuple
	records map[string][]int            // relation -> shard -> insert/delete records
}

func newStoreModel(s *schema.Schema, shards int) *storeModel {
	m := &storeModel{facts: make(map[string]map[string]Tuple), records: make(map[string][]int)}
	for _, name := range s.Names() {
		m.facts[name] = make(map[string]Tuple)
		m.records[name] = make([]int, shards)
	}
	return m
}

func (m *storeModel) clone() *storeModel {
	c := &storeModel{facts: make(map[string]map[string]Tuple), records: make(map[string][]int)}
	for name, ts := range m.facts {
		c.facts[name] = make(map[string]Tuple, len(ts))
		for k, t := range ts {
			c.facts[name][k] = t
		}
		c.records[name] = append([]int(nil), m.records[name]...)
	}
	return c
}

// refShard routes a tuple as the on-disk format does: FNV-1a over its key.
func refShard(t Tuple, n int) int {
	h := fnv.New32a()
	h.Write([]byte(t.Key()))
	return int(h.Sum32() % uint32(n))
}

// apply mirrors one edit on the model and reports whether it changed it.
func (m *storeModel) apply(e Edit, shards int) bool {
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
	m.records[e.Fact.Rel][refShard(e.Fact.Args, shards)]++
	return true
}

// compact mirrors Compact(0): a shard with dead records keeps only its live
// ones.
func (m *storeModel) compact(shards int) {
	for name, ts := range m.facts {
		live := make([]int, shards)
		for _, t := range ts {
			live[refShard(t, shards)]++
		}
		for i, n := range live {
			if m.records[name][i] > n {
				m.records[name][i] = n
			}
		}
	}
}

// checkStore compares the reader with the model: Facts, Scan and MatchCount
// for 0–3 bindings drawn from the value pool, and — when st is given — every
// segment's live and dead counts.
func checkStore(t *testing.T, step string, d Reader, st *Stats, m *storeModel, shards int, pool []string, rng *rand.Rand) {
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
	if st == nil {
		return
	}
	seen := 0
	for _, seg := range st.Segments {
		live := 0
		for _, tu := range m.facts[seg.Relation] {
			if refShard(tu, shards) == seg.Shard {
				live++
			}
		}
		records := m.records[seg.Relation][seg.Shard]
		if seg.Live != live || seg.Dead != records-live {
			t.Fatalf("%s: segment %s.%d live %d dead %d, model live %d dead %d",
				step, seg.Relation, seg.Shard, seg.Live, seg.Dead, live, records-live)
		}
		seen++
	}
	if want := len(m.facts) * shards; seen != want {
		t.Fatalf("%s: Stats lists %d segments, want %d", step, seen, want)
	}
}

// TestDiskStoreBookkeeping runs seeded inserts, deletes and re-inserts
// through a DiskStore, with a Fork, a Snapshot, Compact(0) and a reopen
// along the way, and after every step compares the store with a reference
// model: Facts, each segment's live and dead counts (which drive Stats, the
// garbage ratio and Compact's choice of shards), and Scan and MatchCount for
// 0–3 bindings.
func TestDiskStoreBookkeeping(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b", "c"}},
		schema.Relation{Name: "S", Attrs: []string{"a", "b"}},
	)
	pool := []string{"A", "B", "C", "D", "", "x y", "E"}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			const shards = 4
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			ds, err := OpenDisk(dir, s, shards)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { ds.Close() }()
			m := newStoreModel(s, shards)
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
					want := m.apply(e, shards)
					if got, err := st.Apply(e); err != nil || got != want {
						t.Fatalf("%s: Apply(%v) = %v, %v; model %v", step, e, got, err, want)
					}
				}
			}
			check := func(step string) {
				st := ds.Stats()
				checkStore(t, step, ds, &st, m, shards, pool, rng)
			}

			edits("inserts", ds, m, 150)
			check("after edits")

			snap := ds.Snapshot()
			sm := m.clone()
			edits("edits after snapshot", ds, m, 60)
			checkStore(t, "snapshot", snap, nil, sm, shards, pool, rng)
			check("after snapshot edits")

			if _, err := ds.Compact(0); err != nil {
				t.Fatal(err)
			}
			m.compact(shards)
			check("after Compact(0)")

			edits("edits after compaction", ds, m, 60)
			check("after post-compaction edits")

			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			if ds, err = OpenDisk(dir, s, shards); err != nil {
				t.Fatal(err)
			}
			check("after reopen")

			edits("edits after reopen", ds, m, 60)
			check("after post-reopen edits")
		})
	}
}
