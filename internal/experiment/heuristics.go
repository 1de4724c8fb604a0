package experiment

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
)

// HeuristicsAblation compares all six deletion-ordering heuristics on Q3
// with injected wrong answers: the paper's QOCO (most frequent + Thm 4.5),
// the QOCO− and Random baselines of §7.2, and the §4 alternatives
// (responsibility, trust and influence ordering). The Trust policy receives an
// informative prior: injected (false) tuples score lower than true ones,
// modeling upstream extractor confidence.
func HeuristicsAblation(cfg Config) []Row {
	cfg.applyDefaults()
	q := dataset.SoccerQ3()
	policies := []core.DeletionPolicy{
		core.PolicyQOCO, core.PolicyQOCOMinus, core.PolicyRandom,
		core.PolicyResponsibility, core.PolicyTrust, core.PolicyInfluence,
	}
	var rows []Row
	for _, policy := range policies {
		agg := Row{Figure: "heuristics", Workload: "Q3", Algorithm: policy.String(), Converged: true,
			Requested: cfg.WrongAnswers, Injected: cfg.WrongAnswers}
		for _, seed := range cfg.Seeds {
			rng := rand.New(rand.NewSource(seed))
			dg := dataset.Soccer(cfg.Soccer)
			d := dg.Clone()
			agg.Injected = min(agg.Injected, noise.InjectWrong(d, dg, q, cfg.WrongAnswers, rng))

			lower := len(eval.Result(q, d))
			upper := lower + deletionUpperBound(q, d, dg)

			coreCfg := core.Config{Deletion: policy, RNG: rng}
			if policy == core.PolicyTrust || policy == core.PolicyInfluence {
				coreCfg.TrustScores = trustPrior(d, dg, rng)
			}
			cl := core.New(d, crowd.NewPerfect(dg), coreCfg)
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

// trustPrior simulates extractor confidence scores: false tuples score
// uniformly in [0.1, 0.5), true tuples in [0.5, 0.9) — informative but noisy.
func trustPrior(d, dg *db.Database, rng *rand.Rand) map[string]float64 {
	scores := make(map[string]float64, d.Len())
	for _, f := range d.Facts() {
		if dg.Has(f) {
			scores[f.Key()] = 0.5 + 0.4*rng.Float64()
		} else {
			scores[f.Key()] = 0.1 + 0.4*rng.Float64()
		}
	}
	return scores
}
