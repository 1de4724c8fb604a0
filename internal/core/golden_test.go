package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/noise"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/questions.golden from the current cleaner")

// goldenJob is one seeded in-process cleaning job of the question-count
// golden: the end-to-end benchmark's fig3d-delete and fig3b-insert shapes.
type goldenJob struct {
	name           string
	q              *cq.Query
	wrong, missing int
}

func goldenJobs() []goldenJob {
	return []goldenJob{
		{"Q3-wrong5", dataset.SoccerQ3(), 5, 0},
		{"Q3-missing5", dataset.SoccerQ3(), 0, 5},
		{"Q4-missing5", dataset.SoccerQ4(), 0, 5},
		{"Q5-missing5", dataset.SoccerQ5(), 0, 5},
	}
}

// goldenSeeds are the job seeds; -short runs the first two.
var goldenSeeds = []int64{1, 2, 3, 4, 5}

// TestQuestionCountGolden pins the crowd questions, by kind, that seeded
// cleaning jobs on full Soccer ask with a perfect oracle. One rand.Rand feeds
// InjectMissing, then InjectWrong, then the cleaner's tie-breaks, as the
// end-to-end benchmark seeds its jobs. Any change to the paper's primary
// metric — from the evaluator, the hitting-set choice, the split or the
// cleaning loop — shows up as a diff against testdata/questions.golden; run
// with -update to accept an intended one.
func TestQuestionCountGolden(t *testing.T) {
	seeds := goldenSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	dg := dataset.Soccer(dataset.SoccerOpts{})
	var got strings.Builder
	for _, job := range goldenJobs() {
		truth := eval.Result(job.q, dg, eval.NoCache())
		for _, seed := range seeds {
			d := dg.Clone()
			rng := rand.New(rand.NewSource(seed))
			if n := noise.InjectMissing(d, dg, job.q, job.missing, rng); n < job.missing {
				t.Fatalf("%s seed %d: injected %d of %d missing answers", job.name, seed, n, job.missing)
			}
			if n := noise.InjectWrong(d, dg, job.q, job.wrong, rng); n < job.wrong {
				t.Fatalf("%s seed %d: injected %d of %d wrong answers", job.name, seed, n, job.wrong)
			}
			rep, err := New(d, crowd.NewPerfect(dg), Config{Incremental: true, RNG: rng}).Clean(context.Background(), job.q)
			if err != nil {
				t.Fatalf("%s seed %d: Clean: %v", job.name, seed, err)
			}
			if res := eval.Result(job.q, d, eval.NoCache()); fmt.Sprint(res) != fmt.Sprint(truth) {
				t.Fatalf("%s seed %d: Q(D') = %v, want Q(DG) = %v", job.name, seed, res, truth)
			}
			s := rep.Crowd
			fmt.Fprintf(&got, "%s seed=%d verify_fact=%d verify_answer=%d complete=%d complete_result=%d vars_filled=%d\n",
				job.name, seed, s.VerifyFactQs, s.VerifyAnswerQs, s.CompleteQs, s.CompleteResultQs, s.VariablesFilled)
		}
	}
	path := filepath.Join("testdata", "questions.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, _, _ := strings.Cut(line, " verify_fact=")
		want[name] = line
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		name, _, _ := strings.Cut(line, " verify_fact=")
		if w, ok := want[name]; !ok {
			t.Errorf("no golden line for %q", name)
		} else if w != line {
			t.Errorf("question counts changed:\n got  %s\n want %s", line, w)
		}
	}
}
