package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cq"
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
		c := New(db.DeepCopy(dirty), oracle, Config{RNG: rand.New(rand.NewSource(1))})
		b.StartTimer()
		for _, t := range wrong {
			if _, err := c.RemoveWrongAnswer(context.Background(), q, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAddMissingAnswer guards Algorithm 2's loop: Soccer Q4 and Q5,
// each with 5 injected missing answers added back with a perfect oracle.
// Every iteration repairs a fresh, physically independent copy of the dirty
// database, made and garbage-collected outside the timer (a copy-on-write
// clone would copy each relation on the cleaner's first insert into it,
// inside the timer); the split, the selection of subquery assignments and
// the oracle's completions are inside it.
func BenchmarkAddMissingAnswer(b *testing.B) {
	dg := dataset.Soccer(dataset.SoccerOpts{})
	oracle := crowd.NewPerfect(dg)
	for _, q := range []*cq.Query{dataset.SoccerQ4(), dataset.SoccerQ5()} {
		dirty := dg.Clone()
		if n := noise.InjectMissing(dirty, dg, q, 5, rand.New(rand.NewSource(1))); n < 5 {
			b.Fatalf("%s: injected %d of 5 missing answers", q.Name, n)
		}
		var missing []db.Tuple
		for _, t := range eval.Result(q, dg, eval.NoCache()) {
			if !eval.AnswerHolds(q, dirty, t, eval.NoCache()) {
				missing = append(missing, t)
			}
		}
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New(db.DeepCopy(dirty), oracle, Config{RNG: rand.New(rand.NewSource(1))})
				runtime.GC() // collect the copies here, not inside the timer
				b.StartTimer()
				for _, t := range missing {
					if _, err := c.AddMissingAnswer(context.Background(), q, t); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
