package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
)

// TestCleanInvalidatesEvalCache: when Clean returns — incremental or not —
// the store's sections are gone from the evaluation cache (finishEval calls
// eval.InvalidateDB), so long-lived processes cleaning many stores don't
// accumulate dead cache sections. The db_invalidations counter, which counts
// only calls that found a section to drop, shows that Clean released one and
// that a second InvalidateDB afterwards finds nothing left.
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
		if _, err := c.Clean(context.Background(), q); err != nil {
			t.Fatalf("incremental=%v: Clean: %v", incremental, err)
		}
		n := rec.Counter(eval.MetricCacheDBInvalidations)
		if n == 0 {
			t.Errorf("incremental=%v: db_invalidations counter = 0", incremental)
		}
		eval.InvalidateDB(d.ID())
		if got := rec.Counter(eval.MetricCacheDBInvalidations); got != n {
			t.Errorf("incremental=%v: cache leaked after Clean: a later InvalidateDB found a section", incremental)
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

// slowFirstRel is a store whose first Rel call sleeps 50 ms.
type slowFirstRel struct {
	db.Store
	slept bool
}

func (s *slowFirstRel) Rel(name string) db.Rel {
	if !s.slept {
		s.slept = true
		time.Sleep(50 * time.Millisecond)
	}
	return s.Store.Rel(name)
}

// TestTimingsTotalCoversViewBuild: with Incremental on, Clean builds the IVM
// views before its first round, and Report.Timings.Total must cover the
// build. The build makes the store's first Rel call, which sleeps 50 ms.
func TestTimingsTotalCoversViewBuild(t *testing.T) {
	d, dg := dataset.Figure1()
	s := &slowFirstRel{Store: d}
	c := New(s, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(1)), Incremental: true})
	rep, err := c.Clean(context.Background(), dataset.IntroQ1())
	if err != nil {
		t.Fatal(err)
	}
	if !s.slept {
		t.Fatal("Clean never called Rel")
	}
	if rep.Timings.Total < 50*time.Millisecond {
		t.Errorf("Timings.Total = %v, want at least the 50 ms view build", rep.Timings.Total)
	}
}
