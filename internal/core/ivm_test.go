package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
)

// TestCleanInvalidatesEvalCache: when Clean returns — incremental or not —
// the store's sections are gone from the evaluation cache (finishEval calls
// eval.InvalidateDB), so long-lived processes cleaning many stores don't
// accumulate dead cache sections. The db_invalidations counter confirms the
// release went through the invalidation path rather than LRU eviction.
func TestCleanInvalidatesEvalCache(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		rec := obs.New()
		eval.Instrument(rec)
		c, d, _ := newTestCleaner(t, Config{
			RNG:         rand.New(rand.NewSource(11)),
			Incremental: incremental,
		})
		q := dataset.IntroQ1()
		eval.Result(q, d) // warm a section for d before cleaning
		if st := eval.CacheStatsFor(d.ID()); st.Sections == 0 {
			t.Fatalf("incremental=%v: no cache section after warm-up", incremental)
		}
		if _, err := c.Clean(context.Background(), q); err != nil {
			t.Fatalf("incremental=%v: Clean: %v", incremental, err)
		}
		if st := eval.CacheStatsFor(d.ID()); st.Sections != 0 || st.Entries != 0 {
			t.Errorf("incremental=%v: cache leaked after Clean: %+v", incremental, st)
		}
		if n := rec.Counter(eval.MetricCacheDBInvalidations); n == 0 {
			t.Errorf("incremental=%v: db_invalidations counter = 0", incremental)
		}
		if incremental {
			if hits := rec.Counter(eval.MetricMaintainedHits); hits == 0 {
				t.Errorf("maintained mode never served a lookup (hits = 0)")
			}
		} else if hits := rec.Counter(eval.MetricMaintainedHits); hits != 0 {
			t.Errorf("cold mode recorded %d maintained hits", hits)
		}
		eval.Instrument(nil)
	}
}

// TestUpperBoundCountsWitnessFacts: WrongAnswerUpperBound counts the
// distinct facts over every witness set of the answer, as eval.Witnesses
// lists them, and a repeat call on an unchanged database agrees.
func TestUpperBoundCountsWitnessFacts(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	esp := db.Tuple{"ESP"}

	distinct := map[string]bool{}
	for _, w := range eval.Witnesses(q, d, esp) {
		for _, f := range w {
			distinct[f.Key()] = true
		}
	}
	if len(distinct) == 0 {
		t.Fatal("(ESP) has no witness facts")
	}
	for i := 0; i < 2; i++ {
		if got := WrongAnswerUpperBound(q, d, esp); got != len(distinct) {
			t.Errorf("call %d: WrongAnswerUpperBound = %d, want %d distinct witness facts", i+1, got, len(distinct))
		}
	}
}
