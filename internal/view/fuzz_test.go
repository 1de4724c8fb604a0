package view

import (
	"testing"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/schema"
)

// FuzzViewDeltaInterleave interprets the fuzz input as a script of store and
// engine operations — tracked insert/delete (store edit + Engine.Apply),
// out-of-band edits the engine never sees, Ensure/Release of maintained
// queries, and explicit Sync — and after every step cross-checks the engine
// against the naive evaluator on the live store. It is the delta propagator's
// counterpart of FuzzEvalCacheInterleave: any miscounted support (an
// assignment gained or lost twice, a negation delta with the wrong sign) or
// any missed staleness transition (the engine serving rows for a generation
// it never saw) surfaces as a divergence from NaiveResult. With the engine
// registered as the store's maintainer, eval.Witnesses must also match the
// cold enumeration and exist for exactly the naive answers.
func FuzzViewDeltaInterleave(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0})                   // tracked inserts and a delete
	f.Add([]byte{0, 8, 16, 2, 3, 0})            // inserts, out-of-band edit, sync, insert
	f.Add([]byte{0, 4, 0, 4, 1, 4})             // ensure/release churn between edits
	f.Add([]byte{0, 16, 2, 0, 3, 1, 5, 0})      // stale engine keeps falling back until sync
	f.Add([]byte{0, 0, 0, 1, 1, 1, 0, 1, 0, 1}) // support counts through repeated toggles
	f.Fuzz(func(t *testing.T, script []byte) {
		s := schema.New(
			schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
			schema.Relation{Name: "S", Attrs: []string{"b"}},
		)
		var queries []*cq.Query
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

		d := db.New(s)
		e := NewEngine(d)
		for _, q := range queries[:2] {
			if err := e.Ensure(q); err != nil {
				t.Fatal(err)
			}
		}
		inSync := true // our own model of the engine's staleness
		eval.SetMaintainer(d.ID(), e)
		defer func() {
			eval.ClearMaintainer(d.ID(), e)
			eval.InvalidateDB(d.ID())
		}()

		check := func(step int, op string) {
			for qi, q := range queries {
				if !e.Maintains(q) {
					continue
				}
				want := eval.NaiveResult(q, d)
				rows, ok := e.MaintainedResult(d, q)
				if ok != inSync {
					t.Fatalf("step %d (%s, query %d): MaintainedResult ok = %v, expected sync = %v",
						step, op, qi, ok, inSync)
				}
				if ok && !tuplesEqualTest(rows, want) {
					t.Fatalf("step %d (%s, query %d %s): maintained %v, naive %v",
						step, op, qi, q, rows, want)
				}
				// Witnesses are neither maintained nor cached: with the
				// engine registered they still come from an enumeration,
				// and must exist for exactly the naive answers.
				if got := eval.Result(q, d); !tuplesEqualTest(got, want) {
					t.Fatalf("step %d (%s, query %d %s): Result %v, naive %v", step, op, qi, q, got, want)
				}
				probe := make(db.Tuple, len(q.Head))
				for i := range probe {
					probe[i] = "C9"
				}
				for _, tp := range append(append([]db.Tuple(nil), want...), probe) {
					ws := eval.Witnesses(q, d, tp)
					if member := containsTuple(want, tp); (len(ws) > 0) != member {
						t.Fatalf("step %d (%s, query %d): %v has %d witness sets, naive membership %v",
							step, op, qi, tp, len(ws), member)
					}
				}
			}
		}

		for i, b := range script {
			switch b % 6 {
			case 0: // tracked insert
				changed, err := d.InsertFact(fact(b))
				if err != nil {
					t.Fatal(err)
				}
				if changed {
					e.Apply(db.Insertion(fact(b)))
				}
				check(i, "insert")
			case 1: // tracked delete
				changed, err := d.DeleteFact(fact(b))
				if err != nil {
					t.Fatal(err)
				}
				if changed {
					e.Apply(db.Deletion(fact(b)))
				}
				check(i, "delete")
			case 2: // out-of-band edit: the engine must notice via generations
				var changed bool
				var err error
				if b&0x08 != 0 {
					changed, err = d.InsertFact(fact(b))
				} else {
					changed, err = d.DeleteFact(fact(b))
				}
				if err != nil {
					t.Fatal(err)
				}
				if changed {
					inSync = false
				}
				check(i, "out-of-band")
			case 3: // sync rebuilds and must restore service
				e.Sync()
				inSync = true
				check(i, "sync")
			case 4: // ensure another query (resyncs a stale engine en route)
				if err := e.Ensure(queries[int(b>>3)%len(queries)]); err != nil {
					t.Fatal(err)
				}
				inSync = true
				check(i, "ensure")
			case 5: // release a query; remaining views are untouched
				e.Release(queries[int(b>>3)%len(queries)])
				check(i, "release")
			}
		}

		// Final pass: resync and require full parity on every query.
		for _, q := range queries {
			if err := e.Ensure(q); err != nil {
				t.Fatal(err)
			}
		}
		inSync = true
		check(len(script), "final")
	})
}

func containsTuple(ts []db.Tuple, t db.Tuple) bool {
	for _, u := range ts {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

func tuplesEqualTest(a, b []db.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	am := map[string]int{}
	for _, t := range a {
		am[t.Key()]++
	}
	for _, t := range b {
		am[t.Key()]--
		if am[t.Key()] < 0 {
			return false
		}
	}
	return true
}
