package noise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/obs"
)

func TestCorruptHitsCleanlinessTargets(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{Tournaments: 8})
	for _, c := range []float64{0.60, 0.80, 0.95} {
		for _, s := range []float64{0.0, 0.5, 1.0} {
			d := Corrupt(dg, Opts{Cleanliness: c, Skew: s, RNG: rand.New(rand.NewSource(7))})
			gotC := DataCleanliness(d, dg)
			if math.Abs(gotC-c) > 0.02 {
				t.Errorf("cleanliness(c=%v, s=%v) = %v", c, s, gotC)
			}
			gotS := Skewness(d, dg)
			if math.Abs(gotS-s) > 0.05 {
				t.Errorf("skew(c=%v, s=%v) = %v", c, s, gotS)
			}
		}
	}
}

func TestCorruptDoesNotTouchGroundTruth(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{Tournaments: 4})
	before := dg.Len()
	Corrupt(dg, Opts{Cleanliness: 0.7, Skew: 0.5, RNG: rand.New(rand.NewSource(1))})
	if dg.Len() != before {
		t.Errorf("Corrupt mutated the ground truth")
	}
}

func TestCorruptValidation(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{Tournaments: 2})
	cases := []Opts{
		{Cleanliness: 0.8, Skew: 0.5},                                   // nil RNG
		{Cleanliness: 0, Skew: 0.5, RNG: rand.New(rand.NewSource(1))},   // bad cleanliness
		{Cleanliness: 0.8, Skew: 1.5, RNG: rand.New(rand.NewSource(1))}, // bad skew
	}
	for i, opts := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			Corrupt(dg, opts)
		}()
	}
}

func TestCleanDatabaseMetrics(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{Tournaments: 2})
	d := dg.Clone()
	if got := DataCleanliness(d, dg); got != 1 {
		t.Errorf("cleanliness of identical databases = %v", got)
	}
	if got := Skewness(d, dg); got != 1 {
		t.Errorf("skew with zero noise should default to 1, got %v", got)
	}
	q := dataset.SoccerQ1()
	if got := ResultCleanliness(q, d, dg); got != 1 {
		t.Errorf("result cleanliness of identical databases = %v", got)
	}
}

func TestInjectWrongCreatesWrongAnswers(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQ1()
	d := dg.Clone()
	rng := rand.New(rand.NewSource(3))
	created := InjectWrong(d, dg, q, 5, rng)
	if created < 5 {
		t.Fatalf("InjectWrong created %d wrong answers, want 5", created)
	}
	truth := make(map[string]bool)
	for _, tp := range eval.Result(q, dg) {
		truth[tp.Key()] = true
	}
	wrong := 0
	for _, tp := range eval.Result(q, d) {
		if !truth[tp.Key()] {
			wrong++
		}
	}
	if wrong < 5 {
		t.Errorf("observed %d wrong answers in Q(D), want ≥ 5", wrong)
	}
	// No true facts may have been removed.
	for _, f := range dg.Facts() {
		if !d.Has(f) {
			t.Fatalf("InjectWrong removed true fact %v", f)
		}
	}
}

// TestInjectWrongZeroDoesNothing: asking for no wrong answers leaves d alone,
// draws nothing from rng (a cleaner sharing rng sees the same stream) and
// evaluates nothing.
func TestInjectWrongZeroDoesNothing(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{Tournaments: 4})
	d := dg.Clone()
	gen := d.Generation()
	rec := obs.New()
	eval.Instrument(rec)
	defer eval.Instrument(nil)
	rng := rand.New(rand.NewSource(5))
	if n := InjectWrong(d, dg, dataset.SoccerQ3(), 0, rng); n != 0 {
		t.Errorf("InjectWrong(k=0) = %d, want 0", n)
	}
	if got := d.Generation(); got != gen {
		t.Errorf("generation moved from %d to %d", gen, got)
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
		t.Errorf("rng advanced: next draw %d, want %d", got, want)
	}
	if flat := rec.Snapshot().Flat(); len(flat) != 0 {
		t.Errorf("InjectWrong(k=0) evaluated queries: recorded %v", flat)
	}
}

func TestInjectMissingRemovesTrueAnswers(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQ3()
	d := dg.Clone()
	rng := rand.New(rand.NewSource(4))
	base := len(eval.Result(q, dg))
	if base < 6 {
		t.Skipf("Q3 ground result too small (%d) for this test", base)
	}
	removed := InjectMissing(d, dg, q, 5, rng)
	if removed < 5 {
		t.Fatalf("InjectMissing removed %d answers, want ≥ 5", removed)
	}
	missing := 0
	for _, tp := range eval.Result(q, dg) {
		if !eval.AnswerHolds(q, d, tp) {
			missing++
		}
	}
	if missing < 5 {
		t.Errorf("observed %d missing answers, want ≥ 5", missing)
	}
	// Only deletions of true facts happened; no false facts were added.
	for _, f := range d.Facts() {
		if !dg.Has(f) {
			t.Fatalf("InjectMissing added false fact %v", f)
		}
	}
}

func TestResultCleanlinessAfterInjection(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQ1()
	d := dg.Clone()
	InjectWrong(d, dg, q, 3, rand.New(rand.NewSource(5)))
	rc := ResultCleanliness(q, d, dg)
	if rc >= 1 {
		t.Errorf("result cleanliness after injecting wrong answers = %v, want < 1", rc)
	}
}

func TestInjectWrongOnFigure1(t *testing.T) {
	// Small database regression: the injector must work on tiny instances.
	d, dg := dataset.Figure1()
	q := dataset.IntroQ1()
	before := len(eval.Result(q, d))
	created := InjectWrong(d, dg, q, 1, rand.New(rand.NewSource(6)))
	if created != 1 {
		t.Skipf("tiny instance: injector could not place a wrong answer (created=%d)", created)
	}
	if got := len(eval.Result(q, d)); got != before+1 {
		t.Errorf("result size = %d, want %d", got, before+1)
	}
}
