package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/split"
	"repro/internal/sqlfe"
	"repro/internal/view"
)

// benchCfg is a reduced experiment configuration so a full -bench=. run
// completes in minutes: a quarter-size Soccer database, one seed, and two
// injected errors per query. The table shapes (who wins, growth trends) match
// the full qocobench runs recorded in EXPERIMENTS.md.
func benchCfg() experiment.Config {
	return experiment.Config{
		Seeds:          []int64{1},
		Soccer:         dataset.SoccerOpts{Tournaments: 6},
		WrongAnswers:   2,
		MissingAnswers: 2,
	}
}

// BenchmarkFig3aDeletionQueries regenerates Figure 3a: the deletion
// experiment over queries Q1-Q3 with QOCO, QOCO− and Random.
func BenchmarkFig3aDeletionQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig3a(benchCfg())
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3bInsertionQueries regenerates Figure 3b: the insertion
// experiment over queries Q3-Q5 with Provenance, Min-Cut and Random splits.
func BenchmarkFig3bInsertionQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig3b(benchCfg())
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3cMixedQueries regenerates Figure 3c: the mixed experiment over
// queries Q1-Q3.
func BenchmarkFig3cMixedQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig3c(benchCfg())
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3dDeletionNoise regenerates Figure 3d: deletion on Q3 with
// 2/5/10 wrong answers.
func BenchmarkFig3dDeletionNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig3d(benchCfg())
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3eInsertionNoise regenerates Figure 3e: insertion on Q3 with
// 2/5/10 missing answers.
func BenchmarkFig3eInsertionNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig3e(benchCfg())
		if len(rows) != 9 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig3fQuestionTypes regenerates Figure 3f: the question-type mix of
// the Mixed algorithm on Q3.
func BenchmarkFig3fQuestionTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig3f(benchCfg())
		if len(rows) != 3 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig4ImperfectExperts regenerates Figure 4: the majority-of-3
// imperfect-expert experiment on Q2 and Q3.
func BenchmarkFig4ImperfectExperts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Fig4(benchCfg())
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkDBGroupShowcase regenerates the §7.1 DBGroup report cleaning.
func BenchmarkDBGroupShowcase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.DBGroupShowcase(int64(i + 1))
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkSelectQuestionDeletion measures the time to select the next
// deletion question (witness enumeration + most-frequent pick) on the
// full-scale Soccer database — the quantity §7 reports as "not more than one
// or two seconds" on the paper's 2015 prototype.
func BenchmarkSelectQuestionDeletion(b *testing.B) {
	dg := dataset.Soccer(dataset.SoccerOpts{})
	d := dg.Clone()
	q := dataset.SoccerQ3()
	rng := rand.New(rand.NewSource(1))
	noise.InjectWrong(d, dg, q, 5, rng)
	var wrong db.Tuple
	for _, t := range eval.Result(q, d) {
		if !eval.AnswerHolds(q, dg, t) {
			wrong = t
			break
		}
	}
	if wrong == nil {
		b.Fatal("no wrong answer injected")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.NewWitnessSystem(q, d, wrong).MostFrequent(nil) == "" {
			b.Fatal("no candidate question")
		}
	}
}

// BenchmarkEvalIndexed and BenchmarkEvalNaive are the evaluator ablation: the
// index-nested-loop evaluator versus the unoptimized reference on the same
// query and database.
func BenchmarkEvalIndexed(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 6})
	q := dataset.SoccerQ1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Result(q, d)
	}
}

func BenchmarkEvalNaive(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 2})
	q := dataset.SoccerQ1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.NaiveResult(q, d)
	}
}

// BenchmarkEvalColdSerial and BenchmarkEvalWarmCache are the evaluation
// trajectory benchmarks (the series BENCH_eval.json records): cache-bypassed
// evaluation of the Fig3 workload queries on the full-scale Soccer database,
// and re-evaluation of the unchanged database through the generation-stamped
// cache. CI runs them at -benchtime=1x as a smoke test; compare cold vs warm
// locally with -bench='BenchmarkEval(ColdSerial|WarmCache)'.
func BenchmarkEvalColdSerial(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{})
	for i, q := range dataset.SoccerQueries() {
		b.Run(fmt.Sprintf("Q%d", i+1), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if len(eval.Result(q, d, eval.NoCache())) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func BenchmarkEvalWarmCache(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{})
	for i, q := range dataset.SoccerQueries() {
		b.Run(fmt.Sprintf("Q%d", i+1), func(b *testing.B) {
			eval.Result(q, d) // prime the cache for this (query, generation)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if len(eval.Result(q, d)) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkSplitStrategies times one split decision per strategy on the
// embedded Pirlo query (the Algorithm 2 hot path).
func BenchmarkSplitStrategies(b *testing.B) {
	d, _ := dataset.Figure1()
	qt, err := dataset.IntroQ2().Embed(db.Tuple{"Andrea Pirlo"})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []split.Strategy{split.Provenance{}, split.MinCut{}} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := s.Split(qt, d); !ok {
					b.Fatal("split failed")
				}
			}
		})
	}
}

// BenchmarkCleanFigure1 times a full Algorithm 3 run on the paper's running
// example, reporting the Report.Timings phase breakdown as custom metrics.
func BenchmarkCleanFigure1(b *testing.B) {
	var total core.Timings
	for i := 0; i < b.N; i++ {
		d, dg := dataset.Figure1()
		cl := core.New(d, crowd.NewPerfect(dg), core.Config{RNG: rand.New(rand.NewSource(1))})
		rep, err := cl.Clean(context.Background(), dataset.IntroQ1())
		if err != nil {
			b.Fatal(err)
		}
		total.Verify += rep.Timings.Verify
		total.Delete += rep.Timings.Delete
		total.Insert += rep.Timings.Insert
	}
	n := float64(b.N)
	b.ReportMetric(float64(total.Verify)/n, "verify-ns/op")
	b.ReportMetric(float64(total.Delete)/n, "delete-ns/op")
	b.ReportMetric(float64(total.Insert)/n, "insert-ns/op")
}

// BenchmarkCleanlinessSweep regenerates the data-cleanliness sweep (§7.2's
// 60%-95% knob) at two levels.
func BenchmarkCleanlinessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.CleanlinessSweep(benchCfg(), []float64{0.80, 0.95})
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkSQLTranslate measures the SQL front-end lowering a 3-way join.
func BenchmarkSQLTranslate(b *testing.B) {
	s := dataset.WorldCupSchema()
	const q = `SELECT g1.winner FROM Games g1, Games g2, Teams t
		WHERE g1.winner = g2.winner AND t.name = g1.winner
		AND g1.stage = 'Final' AND g2.stage = 'Final'
		AND t.continent = 'EU' AND g1.date <> g2.date`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlfe.Parse(s, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewIncrementalVsRefresh is the materialized-view ablation: one
// incremental edit application versus a full recomputation.
func BenchmarkViewIncrementalVsRefresh(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 6})
	q := dataset.SoccerQ1()
	fact := db.NewFact("Games", "99.99.99", "POR", "HUN", "Final", "2:1")
	b.Run("incremental", func(b *testing.B) {
		v := view.New("v", q, d)
		for i := 0; i < b.N; i++ {
			d.InsertFact(fact)
			v.Apply(d, db.Insertion(fact))
			d.DeleteFact(fact)
			v.Apply(d, db.Deletion(fact))
		}
	})
	b.Run("refresh", func(b *testing.B) {
		v := view.New("v", q, d)
		for i := 0; i < b.N; i++ {
			d.InsertFact(fact)
			v.Refresh(d)
			d.DeleteFact(fact)
			v.Refresh(d)
		}
	})
}
