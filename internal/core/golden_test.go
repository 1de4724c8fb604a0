package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/questions.golden from the current cleaner")

// goldenJob is one seeded in-process cleaning job of the question-count
// golden: the end-to-end benchmark's fig3d-delete and fig3b-insert shapes,
// run by Clean, and two unions run by CleanUnion.
type goldenJob struct {
	name string
	u    *cq.Union // one disjunct: Clean runs it; more: CleanUnion does
	// load returns D, before noise injection, and DG.
	load func() (d, dg *db.Database)
	// wrong and missing answers are injected into D against disjunct 0.
	wrong, missing int
}

func goldenJobs() []goldenJob {
	soccer := dataset.Soccer(dataset.SoccerOpts{})
	fromSoccer := func() (*db.Database, *db.Database) { return soccer.Clone(), soccer }
	dbgroup := dataset.DBGroup()
	fromDBGroup := func() (*db.Database, *db.Database) { return dbgroup.Clone(), dbgroup }
	one := func(q *cq.Query) *cq.Union { return &cq.Union{Disjuncts: []*cq.Query{q}} }
	return []goldenJob{
		{"Q3-wrong5", one(dataset.SoccerQ3()), fromSoccer, 5, 0},
		{"Q3-missing5", one(dataset.SoccerQ3()), fromSoccer, 0, 5},
		{"Q4-missing5", one(dataset.SoccerQ4()), fromSoccer, 0, 5},
		{"Q5-missing5", one(dataset.SoccerQ5()), fromSoccer, 0, 5},
		// The DBGroup showcase's Q1 noise: 1 wrong and 1 missing keynote.
		{"DBGroupQ1-union-wrong1-missing1", dataset.DBGroupQ1(), fromDBGroup, 1, 1},
		// TestCleanUnion's union over Figure 1, whose D is dirty already.
		{"Fig1-EU-SA-union", cq.MustParseUnion(
			"(x) :- Games(d1, x, y, Final, u1), Teams(x, EU) ; (x) :- Games(d1, x, y, Final, u1), Teams(x, SA)"),
			dataset.Figure1, 0, 0},
	}
}

// goldenSeeds are the job seeds; -short runs the first two.
var goldenSeeds = []int64{1, 2, 3, 4, 5}

// TestQuestionCountGolden pins the crowd questions, by kind, that seeded
// cleaning jobs ask with a perfect oracle, and a digest of the edit script
// each job applies, in order. One rand.Rand feeds InjectMissing, then
// InjectWrong, then the cleaner's tie-breaks, as the end-to-end benchmark
// seeds its jobs. Any change to the paper's primary metric — from the
// evaluator, the hitting-set choice, the split or the cleaning loop — shows
// up as a diff against testdata/questions.golden, and so does a change that
// keeps the counts but asks or edits in another order; run with -update to
// accept an intended one.
func TestQuestionCountGolden(t *testing.T) {
	seeds := goldenSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	var got strings.Builder
	for _, job := range goldenJobs() {
		q := job.u.Disjuncts[0]
		for _, seed := range seeds {
			d, dg := job.load()
			truth := eval.ResultUnion(job.u, dg, eval.NoCache())
			rng := rand.New(rand.NewSource(seed))
			if n := noise.InjectMissing(d, dg, q, job.missing, rng); n < job.missing {
				t.Fatalf("%s seed %d: injected %d of %d missing answers", job.name, seed, n, job.missing)
			}
			if n := noise.InjectWrong(d, dg, q, job.wrong, rng); n < job.wrong {
				t.Fatalf("%s seed %d: injected %d of %d wrong answers", job.name, seed, n, job.wrong)
			}
			c := New(d, crowd.NewPerfect(dg), Config{Incremental: true, RNG: rng})
			var rep *Report
			var err error
			if len(job.u.Disjuncts) == 1 {
				rep, err = c.Clean(context.Background(), q)
			} else {
				rep, err = c.CleanUnion(context.Background(), job.u)
			}
			if err != nil {
				t.Fatalf("%s seed %d: clean: %v", job.name, seed, err)
			}
			if res := eval.ResultUnion(job.u, d, eval.NoCache()); fmt.Sprint(res) != fmt.Sprint(truth) {
				t.Fatalf("%s seed %d: Q(D') = %v, want Q(DG) = %v", job.name, seed, res, truth)
			}
			s := rep.Crowd
			fmt.Fprintf(&got, "%s seed=%d verify_fact=%d verify_answer=%d complete=%d complete_result=%d vars_filled=%d edits=%s\n",
				job.name, seed, s.VerifyFactQs, s.VerifyAnswerQs, s.CompleteQs, s.CompleteResultQs, s.VariablesFilled,
				editDigest(rep.Edits))
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
			t.Errorf("question counts or edit script changed:\n got  %s\n want %s", line, w)
		}
	}
}

// editDigest returns the number of edits and a SHA-256 prefix of the script,
// in order. Fact keys hold no 0x1e, so the encoding is unambiguous.
func editDigest(edits []db.Edit) string {
	h := sha256.New()
	var b []byte
	for _, e := range edits {
		b = append(b[:0], e.Op.String()...)
		b = e.Fact.AppendKey(b)
		h.Write(append(b, '\x1e'))
	}
	return fmt.Sprintf("%d:%s", len(edits), hex.EncodeToString(h.Sum(nil))[:16])
}
