package enumest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestEmptyEstimator(t *testing.T) {
	e := New()
	if e.n != 0 || len(e.counts) != 0 {
		t.Errorf("fresh estimator not empty")
	}
	if e.Coverage() != 0 {
		t.Errorf("Coverage = %v, want 0", e.Coverage())
	}
	if e.Chao92() != 0 {
		t.Errorf("Chao92 = %v, want 0", e.Chao92())
	}
	if !math.IsInf(e.EstimatedRemaining(), 1) {
		t.Errorf("EstimatedRemaining = %v, want +Inf", e.EstimatedRemaining())
	}
	if e.Complete(1, 0) {
		t.Errorf("empty estimator reported complete")
	}
}

func TestAllSingletonsInfiniteEstimate(t *testing.T) {
	e := New()
	e.Observe("a")
	e.Observe("b")
	e.Observe("c")
	if cov := e.Coverage(); cov != 0 {
		t.Errorf("Coverage = %v, want 0 (all singletons)", cov)
	}
	if !math.IsInf(e.Chao92(), 1) {
		t.Errorf("Chao92 = %v, want +Inf", e.Chao92())
	}
	if e.Complete(1, 0) {
		t.Errorf("zero-coverage sample reported complete")
	}
}

func TestFullySaturatedSample(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Observe("a")
		e.Observe("b")
	}
	if cov := e.Coverage(); cov != 1 {
		t.Errorf("Coverage = %v, want 1 (no singletons)", cov)
	}
	got := e.Chao92()
	if got != 2 {
		t.Errorf("Chao92 = %v, want 2", got)
	}
	if !e.Complete(3, 0) {
		t.Errorf("saturated sample should be complete")
	}
}

func TestConsecutiveNullRule(t *testing.T) {
	e := New()
	e.ObserveNull()
	e.ObserveNull()
	if !e.Complete(100, 2) {
		t.Errorf("2 consecutive nulls should satisfy minNulls=2")
	}
	if e.Complete(100, 3) {
		t.Errorf("2 nulls should not satisfy minNulls=3")
	}
	// A real answer resets the null run.
	e.Observe("x")
	if e.ConsecutiveNulls() != 0 {
		t.Errorf("ConsecutiveNulls = %d after Observe, want 0", e.ConsecutiveNulls())
	}
}

func TestChao92MonotoneSaturation(t *testing.T) {
	// As the same 4 answers keep arriving, the estimate must converge to 4.
	e := New()
	answers := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		e.Observe(answers[rng.Intn(len(answers))])
	}
	got := e.Chao92()
	if math.Abs(got-4) > 0.01 {
		t.Errorf("Chao92 after saturation = %v, want ≈ 4", got)
	}
	if rem := e.EstimatedRemaining(); rem > 0.01 {
		t.Errorf("EstimatedRemaining = %v, want ≈ 0", rem)
	}
}

// TestChao92RecoverTrueRichness draws uniform samples from populations of
// several sizes and checks the estimate lands near the truth once sampling is
// deep enough.
func TestChao92RecoverTrueRichness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{5, 20, 50} {
		t.Run(fmt.Sprintf("population%d", size), func(t *testing.T) {
			e := New()
			for i := 0; i < size*20; i++ {
				e.Observe(fmt.Sprintf("ans%d", rng.Intn(size)))
			}
			got := e.Chao92()
			if got < float64(size)*0.9 || got > float64(size)*1.2 {
				t.Errorf("Chao92 = %v, want within [%v, %v]", got, float64(size)*0.9, float64(size)*1.2)
			}
		})
	}
}

func TestCompleteNeedsMinSamples(t *testing.T) {
	e := New()
	e.Observe("a")
	e.Observe("a")
	// Coverage 1, remaining 0, but only 2 samples.
	if e.Complete(5, 0) {
		t.Errorf("Complete should respect minSamples")
	}
	if !e.Complete(2, 0) {
		t.Errorf("Complete with satisfied minSamples should hold")
	}
}

func TestSkewedPopulationUnderestimatesWithoutCV(t *testing.T) {
	// A heavily skewed population: the CV-corrected Chao92 must estimate at
	// least the plain coverage estimate c/Ĉ.
	rng := rand.New(rand.NewSource(9))
	e := New()
	for i := 0; i < 300; i++ {
		// 1 very common answer, 19 rare ones.
		if rng.Intn(10) < 8 {
			e.Observe("common")
		} else {
			e.Observe(fmt.Sprintf("rare%d", rng.Intn(19)))
		}
	}
	cov := e.Coverage()
	plain := float64(len(e.counts)) / cov
	if e.Chao92() < plain-1e-9 {
		t.Errorf("CV-corrected Chao92 (%v) below plain estimate (%v)", e.Chao92(), plain)
	}
}
