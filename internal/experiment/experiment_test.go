package experiment

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// smallCfg keeps experiment tests fast: a reduced Soccer database, one seed,
// few injected errors.
func smallCfg() Config {
	return Config{
		Seeds:          []int64{1, 2, 3},
		Soccer:         dataset.SoccerOpts{Tournaments: 8},
		WrongAnswers:   2,
		MissingAnswers: 2,
	}
}

func questionsByAlgo(rows []Row, workload string) map[string]int {
	out := make(map[string]int)
	for _, r := range rows {
		if r.Workload == workload {
			out[r.Algorithm] = r.Questions
		}
	}
	return out
}

func TestFig3aShape(t *testing.T) {
	rows := Fig3a(smallCfg())
	if len(rows) != 9 { // 3 queries × 3 algorithms
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s/%s did not converge", r.Workload, r.Algorithm)
		}
		if r.Lower+r.Questions+r.Avoided != r.Upper {
			// Averaging can lose a unit to rounding; allow slack of the seed count.
			diff := r.Upper - r.Lower - r.Questions - r.Avoided
			if diff < -1 || diff > 1 {
				t.Errorf("%s/%s: bars %d+%d+%d != total %d", r.Workload, r.Algorithm, r.Lower, r.Questions, r.Avoided, r.Upper)
			}
		}
		if r.Questions > r.Upper {
			t.Errorf("%s/%s: questions %d exceed the naive bound %d", r.Workload, r.Algorithm, r.Questions, r.Upper)
		}
	}
	// The headline claim: QOCO asks no more than QOCO−, which asks no more
	// than... (Random can fluctuate on tiny instances; require QOCO ≤ Random
	// summed over queries).
	var qoco, minus, random int
	for _, w := range []string{"Q1", "Q2", "Q3"} {
		qs := questionsByAlgo(rows, w)
		qoco += qs["QOCO"]
		minus += qs["QOCO-"]
		random += qs["Random"]
	}
	// Allow a unit of per-query averaging slack on the small test instance.
	if qoco > minus+1 {
		t.Errorf("QOCO total %d > QOCO- total %d", qoco, minus)
	}
	if qoco > random+1 {
		t.Errorf("QOCO total %d > Random total %d", qoco, random)
	}
}

func TestFig3bShape(t *testing.T) {
	rows := Fig3b(smallCfg())
	if len(rows) != 9 { // 3 queries × 3 strategies
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s/%s did not converge", r.Workload, r.Algorithm)
		}
		// Split strategies must beat the naive bound (that is the paper's
		// headline for Figure 3b): filled variables strictly below Upper-Lower
		// unless nothing was missing.
		if r.Lower > 0 && r.Questions > r.Upper-r.Lower {
			t.Errorf("%s/%s: filled %d variables, naive needs only %d", r.Workload, r.Algorithm, r.Questions, r.Upper-r.Lower)
		}
	}
	// Provenance is the paper's best strategy overall.
	var prov, rest int
	for _, w := range []string{"Q3", "Q4", "Q5"} {
		qs := questionsByAlgo(rows, w)
		prov += qs["Provenance"]
		rest += min(qs["Min-Cut"], qs["Random"])
	}
	if prov > rest {
		t.Errorf("Provenance total %d > best competitor total %d", prov, rest)
	}
}

func TestFig3cShape(t *testing.T) {
	rows := Fig3c(smallCfg())
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s/%s did not converge", r.Workload, r.Algorithm)
		}
	}
	var qoco, random int
	for _, w := range []string{"Q1", "Q2", "Q3"} {
		qs := questionsByAlgo(rows, w)
		qoco += qs["QOCO"]
		random += qs["Random"]
	}
	if qoco > random {
		t.Errorf("mixed QOCO total %d > Random total %d", qoco, random)
	}
}

func TestFig3dGrowsWithNoise(t *testing.T) {
	rows := Fig3d(smallCfg())
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	// More wrong answers → more verification work for every algorithm.
	qs2 := questionsByAlgo(rows, "Q3 (2 wrong)")
	qs10 := questionsByAlgo(rows, "Q3 (10 wrong)")
	for _, algo := range []string{"QOCO", "QOCO-", "Random"} {
		if qs10[algo] < qs2[algo] {
			t.Errorf("%s: questions fell from %d (2 wrong) to %d (10 wrong)", algo, qs2[algo], qs10[algo])
		}
	}
}

// TestFig3dFlagsShortInjection: on the full Soccer database the noise
// injector cannot create 10 wrong answers of Q3, so every 10-wrong row of
// Figure 3d is flagged short, in the row and in its rendering, while the
// 2-wrong and 5-wrong rows are whole.
func TestFig3dFlagsShortInjection(t *testing.T) {
	rows := Fig3d(Config{Seeds: []int64{1}})
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	out := RenderRows("Figure 3d", rows)
	for i, r := range rows {
		want := r.Workload == "Q3 (10 wrong)"
		if r.Short() != want {
			t.Errorf("%s %s: Short() = %v (%d of %d injected), want %v",
				r.Workload, r.Algorithm, r.Short(), r.Injected, r.Requested, want)
		}
		line := strings.Split(out, "\n")[i+2]
		if strings.Contains(line, "SHORT") != want {
			t.Errorf("rendered row %q: short mark %v, want %v", line, !want, want)
		}
	}
}

func TestFig3eGrowsWithNoise(t *testing.T) {
	rows := Fig3e(smallCfg())
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	qs2 := questionsByAlgo(rows, "Q3 (2 missing)")
	qs10 := questionsByAlgo(rows, "Q3 (10 missing)")
	for _, algo := range []string{"Provenance", "Min-Cut", "Random"} {
		if qs10[algo] < qs2[algo] {
			t.Errorf("%s: filled variables fell from %d (2 missing) to %d (10 missing)", algo, qs2[algo], qs10[algo])
		}
	}
}

func TestFig3fMixGrows(t *testing.T) {
	rows := Fig3f(smallCfg())
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s did not converge", r.Workload)
		}
	}
	// "the number of tuples and answers that are verified increases as the
	// number of errors increases" (§7.2 on Figure 3f).
	if rows[2].VerifyTuples < rows[0].VerifyTuples {
		t.Errorf("verify-tuples fell with more errors: %d -> %d", rows[0].VerifyTuples, rows[2].VerifyTuples)
	}
	if rows[2].FillMissing < rows[0].FillMissing {
		t.Errorf("fill-missing fell with more errors: %d -> %d", rows[0].FillMissing, rows[2].FillMissing)
	}
}

func TestFig4ImperfectExperts(t *testing.T) {
	cfg := smallCfg()
	rows := Fig4(cfg)
	if len(rows) != 6 { // 2 queries × 3 algorithms
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s/%s did not converge", r.Workload, r.Algorithm)
		}
		if r.VerifyAnswers == 0 {
			t.Errorf("%s/%s: no answer verifications recorded", r.Workload, r.Algorithm)
		}
	}
}

func TestDBGroupShowcase(t *testing.T) {
	rows := DBGroupShowcase(1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	var wrong, missing, deleted, inserted int
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s did not converge", r.Query)
		}
		wrong += r.Wrong
		missing += r.Missing
		deleted += r.Deleted
		inserted += r.Inserted
	}
	// The paper's order of magnitude: 5 wrong + 7 missing answers, 6 deleted
	// + 8 inserted tuples. The injectors guarantee at least the seeded
	// errors are discoverable; cascades may add a few.
	if wrong < 4 {
		t.Errorf("wrong answers found = %d, want ≥ 4 (paper: 5)", wrong)
	}
	if missing < 5 {
		t.Errorf("missing answers found = %d, want ≥ 5 (paper: 7)", missing)
	}
	if deleted == 0 || inserted == 0 {
		t.Errorf("deleted %d / inserted %d, want both > 0", deleted, inserted)
	}
}

func TestRenderers(t *testing.T) {
	rows := []Row{{Figure: "3a", Workload: "Q1", Algorithm: "QOCO", Lower: 7, Questions: 2, Avoided: 8, Upper: 17, Converged: true}}
	out := RenderRows("Figure 3a", rows)
	if !strings.Contains(out, "QOCO") || !strings.Contains(out, "17") {
		t.Errorf("RenderRows output missing data:\n%s", out)
	}
	mix := []QuestionMixRow{{Figure: "3f", Workload: "Q3", Algorithm: "QOCO", VerifyAnswers: 1, VerifyTuples: 2, FillMissing: 3, Converged: false}}
	out2 := RenderMix("Figure 3f", mix)
	if !strings.Contains(out2, "NO") {
		t.Errorf("RenderMix should flag non-convergence:\n%s", out2)
	}
	sc := DBGroupShowcase(2)
	out3 := RenderShowcase(sc)
	if !strings.Contains(out3, "TOTAL") {
		t.Errorf("RenderShowcase missing totals:\n%s", out3)
	}
}

func TestSortRows(t *testing.T) {
	rows := []Row{
		{Workload: "Q2", Algorithm: "B"},
		{Workload: "Q1", Algorithm: "Z"},
		{Workload: "Q1", Algorithm: "A"},
	}
	SortRows(rows)
	if rows[0].Workload != "Q1" || rows[0].Algorithm != "A" || rows[2].Workload != "Q2" {
		t.Errorf("SortRows order wrong: %+v", rows)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCleanlinessSweep(t *testing.T) {
	rows := CleanlinessSweep(smallCfg(), []float64{0.80, 0.95})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("cleanliness %.2f did not converge", r.Cleanliness)
		}
		if r.ResultClean > 1 || r.ResultClean < 0 {
			t.Errorf("result cleanliness out of range: %v", r.ResultClean)
		}
	}
	// A dirtier database needs at least as much crowd work and at least as
	// many edits as a cleaner one.
	if rows[0].Edits < rows[1].Edits {
		t.Errorf("edits at 80%% (%d) < edits at 95%% (%d)", rows[0].Edits, rows[1].Edits)
	}
	out := RenderSweep(rows)
	if !strings.Contains(out, "cleanliness") {
		t.Errorf("RenderSweep output: %q", out)
	}
}

func TestHeuristicsAblation(t *testing.T) {
	rows := HeuristicsAblation(smallCfg())
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byAlgo := make(map[string]Row)
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("%s did not converge", r.Algorithm)
		}
		byAlgo[r.Algorithm] = r
	}
	// An informative trust prior should beat the uninformed Random baseline.
	if byAlgo["Trust"].Questions > byAlgo["Random"].Questions {
		t.Errorf("Trust (%d questions) worse than Random (%d)",
			byAlgo["Trust"].Questions, byAlgo["Random"].Questions)
	}
	// Responsibility keeps the singleton rule, so it should not be worse than
	// the shortcut-free QOCO- by a wide margin (allow small slack).
	if byAlgo["Responsibility"].Questions > byAlgo["QOCO-"].Questions+3 {
		t.Errorf("Responsibility (%d) much worse than QOCO- (%d)",
			byAlgo["Responsibility"].Questions, byAlgo["QOCO-"].Questions)
	}
}

func TestErrorRateSweep(t *testing.T) {
	rows := ErrorRateSweep(smallCfg(), []float64{0, 0.1})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Rate 0 must always converge (the panel is effectively perfect).
	if rows[0].Converged != rows[0].Runs {
		t.Errorf("error rate 0: converged %d/%d", rows[0].Converged, rows[0].Runs)
	}
	if rows[0].Answers == 0 {
		t.Errorf("no crowd answers recorded")
	}
	out := RenderErrorSweep(rows)
	if !strings.Contains(out, "error rate") {
		t.Errorf("RenderErrorSweep output: %q", out)
	}
}
