package eval

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
)

// witnessesMatchNaive reports whether ws lists the witness sets of answer t
// that NaiveEval's assignments induce, each once, in witness-key order.
func witnessesMatchNaive(ws [][]db.Fact, q *cq.Query, d db.Reader, t db.Tuple) bool {
	want := map[string]bool{}
	for _, a := range NaiveEval(q, d) {
		if h, ok := a.HeadTuple(q); ok && h.Equal(t) {
			want[witnessKey(a.Witness(q))] = true
		}
	}
	keys := make([]string, len(ws))
	for i, w := range ws {
		keys[i] = witnessKey(w)
		if !want[keys[i]] || (i > 0 && keys[i-1] >= keys[i]) {
			return false
		}
	}
	return len(keys) == len(want)
}

// TestCacheHitsAndInvalidation walks the cache through its life cycle on the
// paper's running example: first evaluation misses and fills, re-evaluation
// of the unchanged database hits, an edit bumps the generation so the next
// evaluation misses again (invalidating the stale section) and reflects the
// edit — never the cached pre-edit answer.
func TestCacheHitsAndInvalidation(t *testing.T) {
	r := obs.New()
	Instrument(r)
	defer Instrument(nil)

	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()

	first := Result(q, d)
	if r.Counter(MetricCacheHits) != 0 {
		t.Fatalf("cold evaluation hit the cache (%d hits)", r.Counter(MetricCacheHits))
	}
	misses := r.Counter(MetricCacheMisses)
	if misses == 0 {
		t.Fatal("cold evaluation recorded no cache miss")
	}

	second := Result(q, d)
	if !tuplesEqual(first, second) {
		t.Fatalf("warm result %v differs from cold %v", second, first)
	}
	if r.Counter(MetricCacheHits) != 1 {
		t.Fatalf("warm evaluation: %d hits, want 1", r.Counter(MetricCacheHits))
	}

	// NoCache neither looks up nor stores, so it moves no lookup counter;
	// Witnesses never consults the cache.
	hits, lookups := r.Counter(MetricCacheHits), r.Counter(MetricCacheMisses)
	Result(q, d, NoCache())
	Witnesses(q, d, first[0])
	if r.Counter(MetricCacheHits) != hits || r.Counter(MetricCacheMisses) != lookups {
		t.Error("NoCache evaluation consulted the cache")
	}

	// Edit: delete one of Germany's two final wins. Q1 asks for European
	// teams with final wins on two distinct dates, so (GER) must drop out —
	// serving the cached pre-edit answer would be a correctness bug, not a
	// slowdown.
	del := db.NewFact("Games", "08.07.90", "GER", "ARG", "Final", "1:0")
	if ch, err := d.DeleteFact(del); err != nil || !ch {
		t.Fatalf("DeleteFact = %v, %v", ch, err)
	}
	third := Result(q, d)
	for _, tp := range third {
		if tp[0] == "GER" {
			t.Fatalf("stale cache served: (GER) still in Q1(D) after its witness was deleted: %v", third)
		}
	}
	if r.Counter(MetricCacheMisses) <= misses {
		t.Error("post-edit evaluation did not miss the cache")
	}
	if r.Counter(MetricCacheInvalidations) == 0 {
		t.Error("stale section was never counted as invalidated")
	}

	// Re-inserting restores the original answer (new generation, fresh entry).
	if ch, err := d.InsertFact(del); err != nil || !ch {
		t.Fatalf("InsertFact = %v, %v", ch, err)
	}
	if !tuplesEqual(Result(q, d), first) {
		t.Error("result after undoing the edit differs from the original")
	}
}

// TestCacheClonesIndependent: a clone never sees the original's cache entries
// and vice versa — they have distinct identities even though they start with
// identical contents.
func TestCacheClonesIndependent(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	want := Result(q, d) // cached for d

	c := d.Clone()
	if _, err := c.DeleteFact(db.NewFact("Games", "08.07.90", "GER", "ARG", "Final", "1:0")); err != nil {
		t.Fatal(err)
	}
	for _, tp := range Result(q, c) {
		if tp[0] == "GER" {
			t.Fatalf("clone served the original's cached answer: %v", Result(q, c))
		}
	}
	if !tuplesEqual(Result(q, d), want) {
		t.Error("original's answer changed after editing the clone")
	}
}

// TestHoldsCachedAndInvalidated: Holds is memoized per generation and
// invalidated by edits, and Witnesses, which is never cached, follows the
// edits too.
func TestHoldsCachedAndInvalidated(t *testing.T) {
	r := obs.New()
	Instrument(r)
	defer Instrument(nil)

	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	ger := db.Tuple{"GER"}

	ws := Witnesses(q, d, ger)
	if len(ws) == 0 || !witnessesMatchNaive(ws, q, d, ger) {
		t.Fatalf("Witnesses(GER) = %v, want the naive witness sets", ws)
	}

	if !AnswerHolds(q, d, ger) {
		t.Fatal("(GER) should hold")
	}
	hits := r.Counter(MetricCacheHits)
	if !AnswerHolds(q, d, ger) {
		t.Fatal("(GER) should still hold")
	}
	if r.Counter(MetricCacheHits) <= hits {
		t.Error("second AnswerHolds call did not hit the cache")
	}

	// Delete every (GER) witness tuple: the memoized Holds must flip.
	for _, w := range ws {
		for _, f := range w {
			if _, err := d.DeleteFact(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if AnswerHolds(q, d, ger) {
		t.Error("(GER) still holds after all its witnesses were deleted (stale Holds cache)")
	}
	if len(Witnesses(q, d, ger)) != 0 {
		t.Error("witness sets survived the deletion of every witness fact")
	}
}

// TestCacheRandomizedInterleavings is the soundness property of the cache:
// under randomized interleavings of edits and queries, cached evaluation is
// indistinguishable from the naive reference evaluator run from scratch at
// every step — Result and AnswerHolds never serve a stale generation, and
// Witnesses, which is not cached, follows every edit.
func TestCacheRandomizedInterleavings(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	consts := []string{"C0", "C1", "C2"}
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 40; trial++ {
		d := randDB(rng, s)
		var queries []*cq.Query
		for len(queries) < 4 {
			q := randQuery(rng)
			if err := q.Validate(s); err == nil && len(q.Head) > 0 {
				queries = append(queries, q)
			}
		}
		for step := 0; step < 30; step++ {
			// Randomly interleave edits with evaluations, reusing the same
			// constant pool so edits hit live cache entries.
			if rng.Intn(3) == 0 {
				rel := "R"
				if rng.Intn(2) == 0 {
					rel = "S"
				}
				f := db.NewFact(rel, consts[rng.Intn(3)], consts[rng.Intn(3)])
				var err error
				if rng.Intn(2) == 0 {
					_, err = d.InsertFact(f)
				} else {
					_, err = d.DeleteFact(f)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			q := queries[rng.Intn(len(queries))]
			got := Result(q, d)
			want := NaiveResult(q, d)
			if !tuplesEqual(got, want) {
				t.Fatalf("trial %d step %d (%s): cached Result %v, naive %v (gen %d)",
					trial, step, q, got, want, d.Generation())
			}
			if len(want) > 0 && rng.Intn(2) == 0 {
				tp := want[rng.Intn(len(want))]
				if !witnessesMatchNaive(Witnesses(q, d, tp), q, d, tp) {
					t.Fatalf("trial %d step %d (%s): witnesses for %v diverge from the naive ones",
						trial, step, q, tp)
				}
				if !AnswerHolds(q, d, tp) {
					t.Fatalf("trial %d step %d (%s): %v ∈ naive result but cached AnswerHolds false",
						trial, step, q, tp)
				}
			}
		}
	}
}

// TestWarmCacheSpeedup asserts the acceptance floor of the trajectory: warm
// re-evaluation of an unchanged database is at least 10x faster than cold
// evaluation. The measured margin on the full Soccer database is 2-3 orders
// of magnitude (see BENCH_eval.json), so 10x leaves generous headroom for
// noisy CI machines.
func TestWarmCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 6})
	q := dataset.SoccerQueries()[1] // Q2: the heaviest self-join workload

	timeMin := func(n int, f func()) time.Duration {
		best := time.Duration(-1)
		for i := 0; i < n; i++ {
			start := time.Now()
			f()
			if el := time.Since(start); best < 0 || el < best {
				best = el
			}
		}
		return best
	}

	cold := timeMin(5, func() { Result(q, d, NoCache()) })
	Result(q, d) // prime
	warm := timeMin(20, func() { Result(q, d) })
	if warm*10 > cold {
		t.Errorf("warm cache %v vs cold %v: speedup %.1fx, want >= 10x",
			warm, cold, float64(cold)/float64(warm))
	}
}
