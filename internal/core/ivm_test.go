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

// TestUpperBoundHitsWitnessCache: a second WrongAnswerUpperBound call for
// the same answer on an unchanged database is served from the witness cache.
func TestUpperBoundHitsWitnessCache(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	esp := db.Tuple{"ESP"}

	rec := obs.New()
	eval.Instrument(rec)
	defer eval.Instrument(nil)
	first := WrongAnswerUpperBound(q, d, esp) // warm the witness cache entry
	before := rec.Counter(eval.MetricCacheHits)
	if got := WrongAnswerUpperBound(q, d, esp); got != first {
		t.Errorf("second WrongAnswerUpperBound = %d, want %d", got, first)
	}
	if after := rec.Counter(eval.MetricCacheHits); after <= before {
		t.Errorf("second call did not hit the witness cache (%d -> %d)", before, after)
	}
}
