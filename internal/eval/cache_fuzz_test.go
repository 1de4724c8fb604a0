package eval

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// TestCloneEditNeverServesStaleCache: clones are edited concurrently with
// readers evaluating the (unchanged) origin. Each clone carries a fresh ID
// and restarts its generation, so no interleaving may ever serve the
// origin's cached result for a clone or vice versa. Run under -race this
// also exercises the cache's cross-database locking.
func TestCloneEditNeverServesStaleCache(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	rng := rand.New(rand.NewSource(99))
	origin := randDB(rng, s)
	var queries []*cq.Query
	for len(queries) < 4 {
		q := randQuery(rng)
		if err := q.Validate(s); err == nil && len(q.Head) > 0 {
			queries = append(queries, q)
		}
	}
	originWant := make([][]db.Tuple, len(queries))
	for i, q := range queries {
		originWant[i] = NaiveResult(q, origin)
		Result(q, origin) // warm the origin's cache entries
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed int64) { // reader: origin must keep its answers
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qi := int(seed+int64(i)) % len(queries)
				if got := Result(queries[qi], origin); !tuplesEqual(got, originWant[qi]) {
					t.Errorf("origin result drifted: %v vs %v", got, originWant[qi])
					return
				}
			}
		}(int64(w))
		go func(seed int64) { // writer: clone, edit, compare vs naive
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			consts := []string{"C0", "C1", "C2"}
			for i := 0; i < 20; i++ {
				c := origin.Clone()
				for j := 0; j < 5; j++ {
					rel := "R"
					if rng.Intn(2) == 0 {
						rel = "S"
					}
					f := db.NewFact(rel, consts[rng.Intn(3)], consts[rng.Intn(3)])
					if rng.Intn(2) == 0 {
						c.InsertFact(f)
					} else {
						c.DeleteFact(f)
					}
					q := queries[rng.Intn(len(queries))]
					if got, want := Result(q, c), NaiveResult(q, c); !tuplesEqual(got, want) {
						t.Errorf("clone served stale result: %v vs naive %v (gen %d)", got, want, c.Generation())
						return
					}
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
}

// FuzzEvalCacheInterleave interprets the fuzz input as a script of database
// and cache operations — insert, delete, clone, switch database, switch
// query, read cold with NoCache — and after every step cross-checks the
// cached/indexed evaluator against the naive reference on the live
// database. Any stale cache entry (a generation not bumped, a clone sharing
// an entry with its origin, a cold read disturbing a warm one) surfaces as
// a divergence from NaiveResult.
func FuzzEvalCacheInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 4})                     // insert, eval, insert, eval
	f.Add([]byte{0, 4, 1, 4})                     // insert, eval, delete, eval
	f.Add([]byte{0, 4, 2, 8, 4, 3, 4})            // warm, clone, edit clone, eval both
	f.Add([]byte{0, 4, 5, 4, 5, 4})               // cold reads between warm evals
	f.Add([]byte{0, 8, 16, 24, 4, 2, 3, 1, 4, 3}) // mixed script
	f.Add([]byte{0, 0, 4, 4, 1, 1, 4, 4})         // duplicate no-op edits
	f.Fuzz(func(t *testing.T, script []byte) {
		s := schema.New(
			schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
			schema.Relation{Name: "S", Attrs: []string{"b"}},
		)
		queries := make([]*cq.Query, 0, 4)
		for _, text := range []string{
			"(x) :- R(x, y).",
			"(x, y) :- R(x, y), x != y.",
			"(x) :- R(x, y), S(y).",
			"(x) :- R(x, y), not S(x), y != 'C1'.",
		} {
			q, err := cq.Parse(text)
			if err != nil {
				t.Fatalf("parse %q: %v", text, err)
			}
			if err := q.Validate(s); err != nil {
				t.Fatalf("validate %q: %v", text, err)
			}
			queries = append(queries, q)
		}
		consts := []string{"C0", "C1", "C2"}
		fact := func(b byte) db.Fact {
			if b&0x40 != 0 {
				return db.NewFact("S", consts[(b>>4)&3%3])
			}
			return db.NewFact("R", consts[(b>>2)&3%3], consts[(b>>4)&3%3])
		}
		dbs := []*db.Database{db.New(s)}
		cur, qi := 0, 0
		check := func(step int, op string) {
			d := dbs[cur]
			q := queries[qi]
			got := Result(q, d)
			want := NaiveResult(q, d)
			if !tuplesEqual(got, want) {
				t.Fatalf("step %d (%s, db %d gen %d, query %s): Result %v, naive %v",
					step, op, cur, d.Generation(), q, got, want)
			}
		}
		for i, b := range script {
			switch b % 6 {
			case 0:
				if _, err := dbs[cur].InsertFact(fact(b)); err != nil {
					t.Fatal(err)
				}
				check(i, "insert")
			case 1:
				if _, err := dbs[cur].DeleteFact(fact(b)); err != nil {
					t.Fatal(err)
				}
				check(i, "delete")
			case 2:
				if len(dbs) < 4 {
					dbs = append(dbs, dbs[cur].Clone())
				}
				check(i, "clone")
			case 3:
				cur = int(b>>3) % len(dbs)
				check(i, "switch-db")
			case 4:
				qi = int(b>>3) % len(queries)
				check(i, "switch-query")
			case 5:
				d, q := dbs[cur], queries[qi]
				if got, want := Result(q, d, NoCache()), NaiveResult(q, d); !tuplesEqual(got, want) {
					t.Fatalf("step %d (cold read, db %d gen %d, query %s): Result %v, naive %v",
						i, cur, d.Generation(), q, got, want)
				}
				check(i, "cold-read")
			}
		}
		// Final pass: every database against every query, warm and cold.
		for di, d := range dbs {
			for qj, q := range queries {
				want := NaiveResult(q, d)
				if got := Result(q, d); !tuplesEqual(got, want) {
					t.Fatalf("final cold (db %d, query %d): Result %v, naive %v", di, qj, got, want)
				}
				if got := Result(q, d); !tuplesEqual(got, want) {
					t.Fatalf("final warm (db %d, query %d): Result %v, naive %v", di, qj, got, want)
				}
			}
		}
	})
}
