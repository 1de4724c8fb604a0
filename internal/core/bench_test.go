package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
)

// BenchmarkRemoveWrongAnswer guards Algorithm 1's loop: Soccer Q3 with 5
// injected wrong answers, each removed with a perfect oracle. Every
// iteration cleans a fresh copy of the dirty database, made outside the
// timer; witness enumeration is inside it.
func BenchmarkRemoveWrongAnswer(b *testing.B) {
	dg := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQ3()
	dirty := dg.Clone()
	if n := noise.InjectWrong(dirty, dg, q, 5, rand.New(rand.NewSource(1))); n < 5 {
		b.Fatalf("injected %d of 5 wrong answers", n)
	}
	var wrong []db.Tuple
	for _, t := range eval.Result(q, dirty, eval.NoCache()) {
		if !eval.AnswerHolds(q, dg, t) {
			wrong = append(wrong, t)
		}
	}
	oracle := crowd.NewPerfect(dg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(dirty.Clone(), oracle, Config{RNG: rand.New(rand.NewSource(1))})
		b.StartTimer()
		for _, t := range wrong {
			if _, err := c.RemoveWrongAnswer(context.Background(), q, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}
