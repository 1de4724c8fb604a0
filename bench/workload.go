package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faultfs"
	"repro/internal/noise"
	"repro/internal/server"
	"repro/internal/split"
	"repro/internal/wal"
)

// workload is one kind of cleaning job the benchmark runs in a closed loop:
// the next job starts when the previous one has finished.
type workload struct {
	name string
	why  string
	// Job j cleans queries[j % len(queries)] after wrong and missing answers
	// were injected into its copy of Soccer.
	queries        []*cq.Query
	wrong, missing int
	// server runs the job through the HTTP API of a freshly booted server
	// instead of calling the cleaner in-process.
	server bool
	// minJobs is how many jobs every untraced run completes, however long
	// they take; questions_per_job averages over exactly these jobs, so it is
	// a function of the seed alone.
	minJobs int
}

// The server-mixed crowd client and read generator settings.
const (
	readInterval = 50 * time.Millisecond // 20 reads/s
	pollSleep    = 200 * time.Microsecond
	httpTimeout  = 10 * time.Second
	jobTimeout   = 60 * time.Second
)

func workloads() []workload {
	return []workload{
		{
			name: "fig3d-delete",
			why: "Q3 with 5 wrong answers in-process: witness enumeration, hitting sets and IVM deletes do the work; " +
				"split and completion questions never run",
			queries: []*cq.Query{dataset.SoccerQ3()}, wrong: 5, minJobs: 96,
		},
		{
			name: "fig3b-insert",
			why: "Q3-Q5 with 5 missing answers in-process: provenance split, completion questions and IVM inserts do the work; " +
				"witnesses and hitting sets stay idle",
			queries: []*cq.Query{dataset.SoccerQ3(), dataset.SoccerQ4(), dataset.SoccerQ5()}, missing: 5, minJobs: 96,
		},
		{
			name: "server-mixed",
			why: "Q2 with 3 wrong and 3 missing answers over HTTP on a journaled disk store, " +
				"with 20 reads/s of Q1 waiting on the job's store lock",
			queries: []*cq.Query{dataset.SoccerQ2()}, wrong: 3, missing: 3, server: true, minJobs: 40,
		},
	}
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobSeed derives job j's seed from the run seed, so runs with different
// seeds share no job inputs.
func jobSeed(runSeed int64, j int) int64 { return runSeed<<20 | int64(j) }

// jobInput is one prepared cleaning job.
type jobInput struct {
	q     *cq.Query
	dg, d *db.Database // ground truth and the dirty copy the job cleans
	truth []db.Tuple   // Q(DG), what the job must converge to
	rng   *rand.Rand   // the cleaner's tie-breaks, continuing the noise stream
}

// prepare builds job j's inputs from its seed: a freshly generated Soccer
// ground truth and a copy with the workload's answers injected.
func (w workload) prepare(soccer dataset.SoccerOpts, seed int64, j int) (jobInput, error) {
	q := w.queries[j%len(w.queries)]
	dg := dataset.Soccer(soccer)
	d := dg.Clone()
	rng := rand.New(rand.NewSource(seed))
	// An exhausted injection loop keeps inserting fake facts without adding
	// answers, which turns a job into a different and far heavier one.
	if n := noise.InjectMissing(d, dg, q, w.missing, rng); n < w.missing {
		return jobInput{}, fmt.Errorf("seed %d: injected %d of %d missing answers", seed, n, w.missing)
	}
	if n := noise.InjectWrong(d, dg, q, w.wrong, rng); n < w.wrong {
		return jobInput{}, fmt.Errorf("seed %d: injected %d of %d wrong answers", seed, n, w.wrong)
	}
	return jobInput{q: q, dg: dg, d: d, truth: eval.Result(q, dg, eval.NoCache()), rng: rng}, nil
}

// jobResult is what one job measured. err is set when the job, one of its
// requests, or its output check failed.
type jobResult struct {
	setup  time.Duration // CPU time preparing inputs plus, on the server, booting it
	wall   time.Duration // the job's latency
	cpu    time.Duration // CPU time of the whole process during the job
	probe  time.Duration // CPU time of the speed probe run just before the job
	alloc  uint64        // bytes allocated during the job
	report *core.Report
	err    error

	obs         obsTally // recorder delta over the job (traced only)
	dbFS, walFS fsTally  // file traffic during the job (traced only)
	requests    int      // HTTP requests of the crowd client
	polls, hits int      // question polls, and those that returned a question
	answers     int      // answers the crowd client posted
	reads       []readResult
}

func (r jobResult) questions() int {
	if r.report == nil {
		return 0
	}
	return r.report.Crowd.Total()
}

// runJob prepares and runs job j of the run, traced when tr is set.
func runJob(ctx context.Context, w workload, soccer dataset.SoccerOpts, runSeed int64, j int, dir string, tr *tracer) jobResult {
	start := now()
	in, err := w.prepare(soccer, jobSeed(runSeed, j), j)
	if err != nil {
		return jobResult{err: err}
	}
	var res jobResult
	if w.server {
		res = runServerJob(ctx, in, filepath.Join(dir, fmt.Sprintf("job-%d", j)), tr, j+1, start)
	} else {
		res = runInProcess(ctx, in, tr, j+1, start)
	}
	// The ground truth's cache sections would otherwise outlive the job.
	eval.InvalidateDB(in.dg.ID())
	return res
}

// measure runs fn as the measured part of res's job, after the speed probe
// and after a collection so the job does not pay for garbage its set-up and
// the probe left behind.
func measure(res *jobResult, fn func()) {
	runtime.GC()
	res.probe = probe()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	fn()
	res.wall, res.cpu = start.since()
	runtime.ReadMemStats(&after)
	res.alloc = after.TotalAlloc - before.TotalAlloc
}

// runInProcess cleans the job with core.Cleaner on the in-memory store, the
// way the qoco command does by default.
func runInProcess(ctx context.Context, in jobInput, tr *tracer, job int, start clock) jobResult {
	var oracle crowd.Oracle = crowd.NewPerfect(in.dg)
	var store db.Store = in.d
	cfg := core.Config{Incremental: true, RNG: in.rng}
	if tr != nil {
		oracle = tracedOracle{inner: oracle, t: tr}
		store = tracedStore{Store: in.d, t: tr}
		cfg.Split = tracedSplit{inner: split.Provenance{}, t: tr}
		cfg.Obs = tr.rec
		eval.Instrument(tr.rec)
	}
	var res jobResult
	_, res.setup = start.since()
	var before obsTally
	var err error
	measure(&res, func() {
		if tr != nil {
			before = readTally(tr.rec)
			defer tr.beginJob(job)()
		}
		res.report, err = core.New(store, oracle, cfg).Clean(ctx, in.q)
	})
	if tr != nil {
		res.obs = readTally(tr.rec).plus(before, -1)
		eval.Instrument(nil)
	}
	if err == nil {
		err = checkOutput(in, eval.Result(in.q, in.d, eval.NoCache()), res.report)
	}
	res.err = err
	return res
}

// checkOutput verifies a finished job: the result over the cleaned database
// equals Q(DG), and every edit moved the database toward DG (Prop 3.3).
func checkOutput(in jobInput, got []db.Tuple, rep *core.Report) error {
	if !sameTuples(got, in.truth) {
		return fmt.Errorf("%s: Q(D') has %d answers, Q(DG) has %d", in.q.Head, len(got), len(in.truth))
	}
	if rep == nil {
		return errors.New("no report")
	}
	for _, e := range rep.Edits {
		if (e.Op == db.Insert) != in.dg.Has(e.Fact) {
			return fmt.Errorf("edit %v%v moves D away from DG", e.Op, e.Fact)
		}
	}
	return nil
}

func sameTuples(a, b []db.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make(map[string]int, len(a))
	for _, t := range a {
		keys[t.Key()]++
	}
	for _, t := range b {
		keys[t.Key()]--
		if keys[t.Key()] < 0 {
			return false
		}
	}
	return true
}

// serverEnv is one freshly booted server, wired like qocoserver: IVM on, the
// admission controller at its flag defaults, the evaluator, journal and store
// reporting into the server's recorder, a fsynced job journal, and a
// 4-shard disk store.
type serverEnv struct {
	ds  *db.DiskStore
	jl  *wal.JobLog
	srv *server.Server
	hs  *httptest.Server
	// The counting filesystems under the store and the journal, used on
	// traced jobs only.
	dbFS, walFS countingFS
}

func bootServer(in jobInput, dir string, tr *tracer) (*serverEnv, error) {
	env := &serverEnv{}
	var dopts []db.DiskOption
	var wopts []wal.JobLogOption
	if tr != nil {
		env.dbFS = countingFS{FS: faultfs.OS(), t: tr, name: spanDBFsync, tally: &tr.dbFS}
		env.walFS = countingFS{FS: faultfs.OS(), t: tr, name: spanWALFsync, tally: &tr.walFS}
		dopts = append(dopts, db.WithFS(env.dbFS))
		wopts = append(wopts, wal.WithJobLogFS(env.walFS))
	}
	ds, err := db.OpenDisk(filepath.Join(dir, "store"), in.d.Schema(), db.DefaultShards, dopts...)
	if err != nil {
		return nil, err
	}
	env.ds = ds
	if _, err := db.Copy(ds, in.d); err != nil {
		env.close()
		return nil, err
	}
	if err := ds.Sync(); err != nil {
		env.close()
		return nil, err
	}
	jl, _, err := wal.OpenJobLog(filepath.Join(dir, "journal.jsonl"), wopts...)
	if err != nil {
		env.close()
		return nil, err
	}
	env.jl = jl
	cfg := core.Config{EvalWorkers: 1, Incremental: true}
	var store db.Store = ds
	if tr != nil {
		store = tracedStore{Store: ds, t: tr}
		cfg.Split = tracedSplit{inner: split.Provenance{}, t: tr}
		cfg.Obs = tr.rec
	}
	srv := server.New(store, cfg)
	eval.Instrument(srv.Obs())
	wal.Instrument(srv.Obs())
	db.Instrument(srv.Obs())
	srv.Queue().SetHistoryLimit(server.DefaultQuestionHistory)
	srv.SetAdmission(admission.NewController(admission.Options{
		MaxConcurrent: 64, QueueTimeout: 10 * time.Second, Obs: srv.Obs(),
	}))
	srv.SetJobLog(jl)
	env.srv = srv
	env.hs = httptest.NewServer(srv.Handler())
	return env, nil
}

// close tears the server down; errors closing the store or journal count
// against the job.
func (e *serverEnv) close() error {
	if e.hs != nil {
		e.hs.Close()
	}
	if e.srv != nil {
		e.srv.Close()
		eval.Instrument(nil)
		wal.Instrument(nil)
		db.Instrument(nil)
	}
	var errs []error
	if e.jl != nil {
		errs = append(errs, e.jl.Close())
	}
	errs = append(errs, e.ds.Close())
	eval.InvalidateDB(e.ds.ID())
	return errors.Join(errs...)
}

// runServerJob boots a server for the job, submits it over HTTP and answers
// its questions from DG until the job ends, while a second client reads Q1
// at readInterval.
func runServerJob(ctx context.Context, in jobInput, dir string, tr *tracer, job int, start clock) jobResult {
	defer os.RemoveAll(dir)
	env, err := bootServer(in, dir, tr)
	if err != nil {
		return jobResult{err: fmt.Errorf("boot: %w", err)}
	}
	var res jobResult
	_, res.setup = start.since()
	crowdClient := newClient(env.hs.URL, tr)
	readClient := newClient(env.hs.URL, tr)
	var oracle crowd.Oracle = crowd.NewPerfect(in.dg)
	if tr != nil {
		oracle = tracedOracle{inner: oracle, t: tr}
	}
	var before obsTally
	var dbBefore, walBefore fsTally
	var final server.Job
	measure(&res, func() {
		if tr != nil {
			before, dbBefore, walBefore = readTally(tr.rec), env.dbFS.read(), env.walFS.read()
			defer tr.beginJob(job)()
		}
		reads := startReads(ctx, readClient, "/api/v1/query?q="+url.QueryEscape(dataset.SoccerQ1().String()))
		final, err = driveJob(ctx, crowdClient, in.q, oracle, &res)
		res.reads = reads.finish()
	})
	if tr != nil && err == nil {
		// The journal's end record is written after the job turns terminal;
		// wait for it so wal.* counts every record: start, answers, end.
		err = waitJournal(env.walFS, walBefore, int64(res.answers)+2)
		res.walFS = env.walFS.read().plus(walBefore, -1)
		res.obs = readTally(tr.rec).plus(before, -1)
	}
	res.requests = crowdClient.requests
	if err == nil {
		err = checkServerOutput(ctx, crowdClient, in, final)
	}
	crowdClient.closeIdle()
	readClient.closeIdle()
	if cerr := env.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if tr != nil {
		// The store buffers its segment writes; closing it flushes the job's
		// last ones, so read its traffic only now.
		res.dbFS = env.dbFS.read().plus(dbBefore, -1)
	}
	res.report = final.Report
	res.err = err
	return res
}
