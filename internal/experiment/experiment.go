// Package experiment regenerates every figure of the paper's evaluation
// (§7): the deletion, insertion and mixed experiments over the Soccer
// database with a simulated perfect oracle (Figures 3a-3f), the
// imperfect-expert crowd experiment (Figure 4), and the DBGroup report
// showcase (§7.1). Each runner returns structured rows (the bar values of the
// figure) that the qocobench command renders as text tables.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
	"repro/internal/split"
)

// Config tunes an experiment run. Zero values select the paper's defaults.
type Config struct {
	// Seeds to average over (default {1, 2, 3}).
	Seeds []int64
	// Soccer generator options (default full-scale ~5000 tuples).
	Soccer dataset.SoccerOpts
	// WrongAnswers / MissingAnswers injected per query (default 5, matching
	// the §7.2 default runs; Figures 3d-3f sweep these).
	WrongAnswers   int
	MissingAnswers int
	// ExpertError is the per-question error rate of imperfect experts in the
	// Figure 4 experiment (default 0.1).
	ExpertError float64
}

func (c *Config) applyDefaults() {
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.WrongAnswers == 0 {
		c.WrongAnswers = 5
	}
	if c.MissingAnswers == 0 {
		c.MissingAnswers = 5
	}
	if c.ExpertError == 0 {
		c.ExpertError = 0.1
	}
}

// Row is one bar group of a figure: an algorithm on a workload, with the
// paper's three bar segments (lower bound, actual questions, avoided) plus
// the naive upper bound they sum to.
type Row struct {
	Figure    string
	Workload  string // e.g. "Q1" or "Q3 (5 wrong)"
	Algorithm string
	Lower     int // black bar: #results to verify / #missing answers
	Questions int // red bar: verification questions / filled variables
	Avoided   int // white bar: questions saved relative to the naive bound
	Upper     int // Lower + Questions + Avoided
	Converged bool
	// CleanTime is the average wall-clock time of the cleaning runs.
	CleanTime time.Duration
	// Requested is how many wrong and missing answers the workload injects
	// per seed, and Injected the fewest the noise injector created on any
	// seed. A row whose injection fell short measured a smaller workload than
	// its name says; RenderRows marks it.
	Requested, Injected int
}

// Short reports whether the noise injector created fewer answers than
// requested on some seed.
func (r Row) Short() bool { return r.Injected < r.Requested }

// QuestionMixRow is one bar of Figures 3f and 4: the crowd work split by
// question type.
type QuestionMixRow struct {
	Figure        string
	Workload      string
	Algorithm     string
	VerifyAnswers int // TRUE(Q, t)? answers
	VerifyTuples  int // TRUE(R(ā))? answers
	FillMissing   int // variables filled through open questions
	Converged     bool
	// CleanTime is the average wall-clock time of the cleaning runs.
	CleanTime time.Duration
}

// deletionAlgos are the Figure 3a/3c/3d competitors.
var deletionAlgos = []core.DeletionPolicy{core.PolicyQOCO, core.PolicyQOCOMinus, core.PolicyRandom}

// insertionAlgos are the Figure 3b/3e competitors (Naive is the upper bound).
func insertionAlgos(rng *rand.Rand) []split.Strategy {
	return []split.Strategy{split.Provenance{}, split.MinCut{}, split.NewRandom(rng)}
}

// Fig3a runs the deletion experiment across queries Q1-Q3 (Figure 3a):
// wrong answers are injected into the Soccer database and each deletion
// algorithm cleans the result; bars count answers verified, tuple
// verifications asked, and questions avoided versus verifying every witness
// tuple.
func Fig3a(cfg Config) []Row {
	cfg.applyDefaults()
	queries := dataset.SoccerQueries()[:3]
	names := []string{"Q1", "Q2", "Q3"}
	var rows []Row
	for qi, q := range queries {
		rows = append(rows, deletionRows("3a", names[qi], q, cfg, cfg.WrongAnswers)...)
	}
	return rows
}

// Fig3d runs the deletion experiment on Q3 with 2, 5 and 10 wrong answers
// (Figure 3d).
func Fig3d(cfg Config) []Row {
	cfg.applyDefaults()
	var rows []Row
	for _, k := range []int{2, 5, 10} {
		rows = append(rows, deletionRows("3d", fmt.Sprintf("Q3 (%d wrong)", k), dataset.SoccerQ3(), cfg, k)...)
	}
	return rows
}

func deletionRows(figure, workload string, q *cq.Query, cfg Config, wrong int) []Row {
	var rows []Row
	for _, policy := range deletionAlgos {
		agg := Row{Figure: figure, Workload: workload, Algorithm: policy.String(), Converged: true,
			Requested: wrong, Injected: wrong}
		for _, seed := range cfg.Seeds {
			rng := rand.New(rand.NewSource(seed))
			dg := dataset.Soccer(cfg.Soccer)
			d := dg.Clone()
			agg.Injected = min(agg.Injected, noise.InjectWrong(d, dg, q, wrong, rng))

			lower := len(eval.Result(q, d))
			upper := lower + deletionUpperBound(q, d, dg)

			cl := core.New(d, crowd.NewPerfect(dg), core.Config{Deletion: policy, RNG: rng})
			rep, err := cl.Clean(context.Background(), q)
			if err != nil {
				agg.Converged = false
			}
			agg.CleanTime += rep.Timings.Total
			questions := cl.Stats().VerifyFactQs
			agg.Lower += lower
			agg.Questions += questions
			agg.Upper += upper
			agg.Avoided += max(0, upper-lower-questions)
		}
		rows = append(rows, averageRow(agg, len(cfg.Seeds)))
	}
	return rows
}

// deletionUpperBound sums the distinct witness tuples over all wrong answers:
// the cost of the naive algorithm that verifies every witness tuple.
func deletionUpperBound(q *cq.Query, d, dg *db.Database) int {
	total := 0
	for _, t := range eval.Result(q, d) {
		if !eval.AnswerHolds(q, dg, t) {
			total += core.WrongAnswerUpperBound(q, d, t)
		}
	}
	return total
}

// Fig3b runs the insertion experiment across queries Q3-Q5 (Figure 3b):
// true answers are removed from the Soccer database and each split strategy
// guides the crowd to complete witnesses; bars count missing answers,
// variables filled, and variables avoided versus the no-split naive task.
func Fig3b(cfg Config) []Row {
	cfg.applyDefaults()
	queries := dataset.SoccerQueries()[2:]
	names := []string{"Q3", "Q4", "Q5"}
	var rows []Row
	for qi, q := range queries {
		rows = append(rows, insertionRows("3b", names[qi], q, cfg, cfg.MissingAnswers)...)
	}
	return rows
}

// Fig3e runs the insertion experiment on Q3 with 2, 5 and 10 missing answers
// (Figure 3e).
func Fig3e(cfg Config) []Row {
	cfg.applyDefaults()
	var rows []Row
	for _, k := range []int{2, 5, 10} {
		rows = append(rows, insertionRows("3e", fmt.Sprintf("Q3 (%d missing)", k), dataset.SoccerQ3(), cfg, k)...)
	}
	return rows
}

func insertionRows(figure, workload string, q *cq.Query, cfg Config, missing int) []Row {
	var rows []Row
	for ai := range insertionAlgos(nil) {
		var name string
		agg := Row{Figure: figure, Workload: workload, Converged: true, Requested: missing, Injected: missing}
		for _, seed := range cfg.Seeds {
			rng := rand.New(rand.NewSource(seed))
			strategy := insertionAlgos(rng)[ai]
			name = strategy.Name()
			dg := dataset.Soccer(cfg.Soccer)
			d := dg.Clone()
			agg.Injected = min(agg.Injected, noise.InjectMissing(d, dg, q, missing, rng))

			missingAnswers := missingAnswersOf(q, d, dg)
			upper := len(missingAnswers)
			for _, t := range missingAnswers {
				upper += core.MissingAnswerUpperBound(q, t)
			}

			cl := core.New(d, crowd.NewPerfect(dg), core.Config{Split: strategy, RNG: rng})
			rep, err := cl.Clean(context.Background(), q)
			if err != nil {
				agg.Converged = false
			}
			agg.CleanTime += rep.Timings.Total
			questions := cl.Stats().VariablesFilled
			agg.Lower += len(missingAnswers)
			agg.Questions += questions
			agg.Upper += upper
			agg.Avoided += max(0, upper-len(missingAnswers)-questions)
		}
		agg.Algorithm = name
		rows = append(rows, averageRow(agg, len(cfg.Seeds)))
	}
	return rows
}

func missingAnswersOf(q *cq.Query, d, dg *db.Database) []db.Tuple {
	var out []db.Tuple
	for _, t := range eval.Result(q, dg) {
		if !eval.AnswerHolds(q, d, t) {
			out = append(out, t)
		}
	}
	return out
}

// Fig3c runs the mixed experiment across queries Q1-Q3 (Figure 3c): both
// wrong and missing answers are injected; the deletion algorithm varies while
// insertion always uses the provenance split (the paper's "Mixed" setup).
func Fig3c(cfg Config) []Row {
	cfg.applyDefaults()
	queries := dataset.SoccerQueries()[:3]
	names := []string{"Q1", "Q2", "Q3"}
	var rows []Row
	for qi, q := range queries {
		rows = append(rows, mixedRows("3c", names[qi], q, cfg, cfg.WrongAnswers, cfg.MissingAnswers)...)
	}
	return rows
}

func mixedRows(figure, workload string, q *cq.Query, cfg Config, wrong, missing int) []Row {
	var rows []Row
	for _, policy := range deletionAlgos {
		agg := Row{Figure: figure, Workload: workload, Algorithm: policy.String(), Converged: true,
			Requested: wrong + missing, Injected: wrong + missing}
		for _, seed := range cfg.Seeds {
			rng := rand.New(rand.NewSource(seed))
			dg := dataset.Soccer(cfg.Soccer)
			d := dg.Clone()
			// InjectMissing can remove more answers than asked for.
			n := min(missing, noise.InjectMissing(d, dg, q, missing, rng))
			agg.Injected = min(agg.Injected, n+noise.InjectWrong(d, dg, q, wrong, rng))

			missingAnswers := missingAnswersOf(q, d, dg)
			lower := len(eval.Result(q, d)) + len(missingAnswers)
			upper := lower + deletionUpperBound(q, d, dg)
			for _, t := range missingAnswers {
				upper += core.MissingAnswerUpperBound(q, t)
			}

			cl := core.New(d, crowd.NewPerfect(dg), core.Config{
				Deletion: policy, Split: split.Provenance{}, RNG: rng,
			})
			rep, err := cl.Clean(context.Background(), q)
			if err != nil {
				agg.Converged = false
			}
			agg.CleanTime += rep.Timings.Total
			questions := cl.Stats().VerifyFactQs + cl.Stats().VariablesFilled
			agg.Lower += lower
			agg.Questions += questions
			agg.Upper += upper
			agg.Avoided += max(0, upper-lower-questions)
		}
		rows = append(rows, averageRow(agg, len(cfg.Seeds)))
	}
	return rows
}

// Fig3f runs the mixed question-type experiment on Q3 (Figure 3f): for
// (2,2), (5,5) and (10,10) wrong+missing answers, the crowd work of the Mixed
// algorithm is split by question type.
func Fig3f(cfg Config) []QuestionMixRow {
	cfg.applyDefaults()
	q := dataset.SoccerQ3()
	var rows []QuestionMixRow
	for _, k := range []int{2, 5, 10} {
		agg := QuestionMixRow{
			Figure: "3f", Workload: fmt.Sprintf("Q3 (%d missing, %d wrong)", k, k),
			Algorithm: "QOCO", Converged: true,
		}
		for _, seed := range cfg.Seeds {
			rng := rand.New(rand.NewSource(seed))
			dg := dataset.Soccer(cfg.Soccer)
			d := dg.Clone()
			noise.InjectMissing(d, dg, q, k, rng)
			noise.InjectWrong(d, dg, q, k, rng)

			cl := core.New(d, crowd.NewPerfect(dg), core.Config{RNG: rng})
			rep, err := cl.Clean(context.Background(), q)
			if err != nil {
				agg.Converged = false
			}
			agg.CleanTime += rep.Timings.Total
			s := cl.Stats()
			agg.VerifyAnswers += s.VerifyAnswerQs
			agg.VerifyTuples += s.VerifyFactQs
			agg.FillMissing += s.VariablesFilled
		}
		n := len(cfg.Seeds)
		agg.VerifyAnswers /= n
		agg.VerifyTuples /= n
		agg.FillMissing /= n
		rows = append(rows, agg)
	}
	return rows
}

// Fig4 runs the real-crowd experiment (Figure 4): three imperfect experts
// under majority-of-2 voting clean Q2 and Q3 with 5 wrong + 5 missing
// answers; crowd work is counted per individual expert answer and split by
// question type, for each deletion algorithm (insertion fixed to provenance).
func Fig4(cfg Config) []QuestionMixRow {
	cfg.applyDefaults()
	queries := []*cq.Query{dataset.SoccerQ2(), dataset.SoccerQ3()}
	names := []string{"Q2", "Q3"}
	var rows []QuestionMixRow
	for qi, q := range queries {
		for _, policy := range deletionAlgos {
			agg := QuestionMixRow{
				Figure: "4", Workload: names[qi], Algorithm: policy.String(), Converged: true,
			}
			for _, seed := range cfg.Seeds {
				rng := rand.New(rand.NewSource(seed))
				dg := dataset.Soccer(cfg.Soccer)
				d := dg.Clone()
				noise.InjectMissing(d, dg, q, cfg.MissingAnswers, rng)
				noise.InjectWrong(d, dg, q, cfg.WrongAnswers, rng)

				panel := crowd.NewPanel(2,
					crowd.NewExpert(dg, cfg.ExpertError, rand.New(rand.NewSource(seed*31+1))),
					crowd.NewExpert(dg, cfg.ExpertError, rand.New(rand.NewSource(seed*31+2))),
					crowd.NewExpert(dg, cfg.ExpertError, rand.New(rand.NewSource(seed*31+3))),
				)
				cl := core.New(d, panel, core.Config{
					Deletion: policy, Split: split.Provenance{}, RNG: rng,
					MinNulls: 2, MaxIterations: 100,
				})
				rep, err := cl.Clean(context.Background(), q)
				if err != nil {
					agg.Converged = false
				}
				agg.CleanTime += rep.Timings.Total
				s := panel.Snapshot() // individual expert answers, as in Fig 4
				agg.VerifyAnswers += s.VerifyAnswerQs
				agg.VerifyTuples += s.VerifyFactQs
				agg.FillMissing += s.VariablesFilled
			}
			n := len(cfg.Seeds)
			agg.VerifyAnswers /= n
			agg.VerifyTuples /= n
			agg.FillMissing /= n
			rows = append(rows, agg)
		}
	}
	return rows
}

func averageRow(agg Row, n int) Row {
	agg.Lower /= n
	agg.Questions /= n
	agg.Avoided /= n
	agg.Upper /= n
	agg.CleanTime /= time.Duration(n)
	return agg
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RenderRows formats bar rows as an aligned text table.
func RenderRows(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %-11s %9s %10s %8s %6s %-3s %9s\n",
		"workload", "algorithm", "#lower", "#questions", "#avoided", "total", "ok", "ms")
	for _, r := range rows {
		ok := "yes"
		if !r.Converged {
			ok = "NO"
		}
		short := ""
		if r.Short() {
			short = fmt.Sprintf("  SHORT: %d of %d injected", r.Injected, r.Requested)
		}
		fmt.Fprintf(&b, "%-22s %-11s %9d %10d %8d %6d %-3s %9.1f%s\n",
			r.Workload, r.Algorithm, r.Lower, r.Questions, r.Avoided, r.Upper, ok,
			float64(r.CleanTime)/float64(time.Millisecond), short)
	}
	return b.String()
}

// RenderMix formats question-type rows as an aligned text table.
func RenderMix(title string, rows []QuestionMixRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %-11s %14s %13s %12s %-3s %9s\n",
		"workload", "algorithm", "verify-answers", "verify-tuples", "fill-missing", "ok", "ms")
	for _, r := range rows {
		ok := "yes"
		if !r.Converged {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-28s %-11s %14d %13d %12d %-3s %9.1f\n",
			r.Workload, r.Algorithm, r.VerifyAnswers, r.VerifyTuples, r.FillMissing, ok,
			float64(r.CleanTime)/float64(time.Millisecond))
	}
	return b.String()
}
