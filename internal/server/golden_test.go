package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
	"repro/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/questions.golden from the current server")

// TestServerQuestionCountGolden pins the crowd questions, by kind, that the
// end-to-end benchmark's server-mixed shape asks: Soccer Q2 with 3 missing
// and then 3 wrong answers injected from one rand.Rand per seed, cleaned over
// HTTP on a 4-shard disk store with a job journal, and answered through the
// question queue by a perfect oracle. A change to the server's question
// economy shows up as a diff against testdata/questions.golden; run with
// -update to accept an intended one.
func TestServerQuestionCountGolden(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	q := dataset.SoccerQ2()
	dg := dataset.Soccer(dataset.SoccerOpts{})
	truth := eval.Result(q, dg, eval.NoCache())
	oracle := crowd.NewPerfect(dg)
	var got strings.Builder
	for _, seed := range seeds {
		srv, ds, jl := bootDiskServer(t, soccerQ2Dirty(t, dg, seed), t.TempDir())
		ts := httptest.NewServer(srv.Handler())

		res := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": q.String()})
		var job Job
		if err := json.NewDecoder(res.Body).Decode(&job); err != nil || res.StatusCode != http.StatusAccepted {
			t.Fatalf("seed %d: POST /api/v1/clean = %d (%v)", seed, res.StatusCode, err)
		}
		res.Body.Close()
		answerUntilDone(t, srv, job.ID, oracle, nil)
		job = jobView(srv, job.ID)
		ts.Close()
		srv.Close()
		if job.State != JobDone || job.Report == nil {
			t.Fatalf("seed %d: job ended %s (%s)", seed, job.State, job.Error)
		}
		if res := eval.Result(q, ds, eval.NoCache()); !sameTuples(res, truth) {
			t.Fatalf("seed %d: Q(D') = %v, want Q(DG) = %v", seed, res, truth)
		}
		if err := jl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		s := job.Report.Crowd
		fmt.Fprintf(&got, "Q2-wrong3-missing3 seed=%d verify_fact=%d verify_answer=%d complete=%d complete_result=%d vars_filled=%d\n",
			seed, s.VerifyFactQs, s.VerifyAnswerQs, s.CompleteQs, s.CompleteResultQs, s.VariablesFilled)
	}
	path := filepath.Join("testdata", "questions.golden")
	if *updateGolden {
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

// soccerQ2Dirty builds the server-mixed job input for seed: Soccer Q2 with
// 3 missing and then 3 wrong answers injected from one rand.Rand.
func soccerQ2Dirty(tb testing.TB, dg *db.Database, seed int64) *db.Database {
	tb.Helper()
	const wrong, missing = 3, 3
	q := dataset.SoccerQ2()
	d := dg.Clone()
	rng := rand.New(rand.NewSource(seed))
	if n := noise.InjectMissing(d, dg, q, missing, rng); n < missing {
		tb.Fatalf("seed %d: injected %d of %d missing answers", seed, n, missing)
	}
	if n := noise.InjectWrong(d, dg, q, wrong, rng); n < wrong {
		tb.Fatalf("seed %d: injected %d of %d wrong answers", seed, n, wrong)
	}
	return d
}

// bootDiskServer boots the server-mixed server over d: a fresh 4-shard disk
// store in dir holding d, synced, IVM on, and a job journal.
func bootDiskServer(tb testing.TB, d *db.Database, dir string) (*Server, *db.DiskStore, *wal.JobLog) {
	tb.Helper()
	ds, err := db.OpenDisk(filepath.Join(dir, "store"), d.Schema(), 4)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Copy(ds, d); err != nil {
		tb.Fatal(err)
	}
	if err := ds.Sync(); err != nil {
		tb.Fatal(err)
	}
	jl, _, err := wal.OpenJobLog(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(ds, core.Config{Incremental: true})
	srv.SetJobLog(jl)
	return srv, ds, jl
}
