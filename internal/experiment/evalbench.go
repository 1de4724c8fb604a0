package experiment

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

// EvalBenchOpts tunes the evaluation micro-benchmark figure.
type EvalBenchOpts struct {
	// Repeats is how many timed repetitions each measurement takes the
	// minimum of (default 5).
	Repeats int
	// Soccer sizes the benchmark database (default full 20 tournaments).
	Soccer dataset.SoccerOpts
	// StoreDir is where the disk-backed store of the mem-vs-disk comparison
	// lives (empty = fresh temp dir, removed afterwards).
	StoreDir string
	// StoreShards is the disk store's hash fan-out (0 = db.DefaultShards).
	StoreShards int
}

func (o *EvalBenchOpts) applyDefaults() {
	if o.Repeats == 0 {
		o.Repeats = 5
	}
}

// EvalBenchRow is one measured workload of the evaluation benchmark: a
// single Soccer query, or a figure aggregate summing its member queries.
type EvalBenchRow struct {
	// Name is "Q1".."Q5" for per-query rows, "fig3a".."fig3c" for the
	// figure aggregates (the workloads of Figures 3a-3c).
	Name string `json:"name"`
	// Queries lists the member queries of an aggregate row.
	Queries []string `json:"queries,omitempty"`
	// Answers is |Q(D)| (summed for aggregates).
	Answers int `json:"answers"`
	// ColdNS is evaluation with the cache bypassed; WarmNS re-reads the same
	// unchanged database through the generation-stamped cache.
	ColdNS int64 `json:"cold_ns"`
	WarmNS int64 `json:"warm_ns"`
	// WarmSpeedup = cold/warm.
	WarmSpeedup float64 `json:"warm_speedup"`
	// Identical reports that cold and warm evaluation produced
	// byte-identical answer sets.
	Identical bool `json:"identical"`
}

// StoreBenchRow compares cold evaluation of one query on the in-memory
// store against the disk-backed store holding the same facts.
type StoreBenchRow struct {
	Name string `json:"name"`
	// MemColdNS and DiskColdNS are cache-bypassed evaluation times.
	MemColdNS  int64 `json:"mem_cold_ns"`
	DiskColdNS int64 `json:"disk_cold_ns"`
	// DiskPenalty = disk/mem (interning round-trips make disk reads slower;
	// the trajectory watches that this stays a small constant).
	DiskPenalty float64 `json:"disk_penalty"`
	// Identical reports byte-identical answers across the two backends.
	Identical bool `json:"identical"`
}

// EvalBenchReport is the full benchmark output — the JSON shape of
// BENCH_eval.json, the repo's evaluation-performance trajectory.
type EvalBenchReport struct {
	Facts      int `json:"facts"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// NaiveAgrees reports that the indexed evaluator matched the naive
	// reference evaluator on every query over a reduced instance (the
	// full-scale instance is out of the naive evaluator's reach).
	NaiveAgrees bool           `json:"naive_agrees"`
	Rows        []EvalBenchRow `json:"rows"`
	// Store is the mem-vs-disk cold-evaluation comparison (Q1-Q5 over the
	// same facts; empty if the disk store could not be opened).
	Store      []StoreBenchRow `json:"store,omitempty"`
	StoreError string          `json:"store_error,omitempty"`
	// Clone-cost guard: DeepCopyNS is the historical O(|D|) per-job copy,
	// CloneNS/SnapshotNS the copy-on-write replacements (ns per op on the
	// benchmark database).
	DeepCopyNS int64 `json:"deep_copy_ns"`
	CloneNS    int64 `json:"clone_ns"`
	SnapshotNS int64 `json:"snapshot_ns"`
}

// tuplesFingerprint canonicalizes an answer set for byte-identity checks.
func tuplesFingerprint(ts []db.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// timeEval times one evaluation configuration, returning the minimum of
// repeats runs and the fingerprint of the (identical across runs) output.
func timeEval(q *cq.Query, d db.Reader, repeats int, opts ...eval.Option) (time.Duration, string) {
	best := time.Duration(-1)
	var fp string
	for i := 0; i < repeats; i++ {
		start := time.Now()
		out := eval.Result(q, d, opts...)
		el := time.Since(start)
		if best < 0 || el < best {
			best = el
		}
		fp = tuplesFingerprint(out)
	}
	return best, fp
}

// EvalBench measures the evaluation engine on the Fig3 workloads (Soccer
// Q1-Q5): cold evaluation and warm-cache re-evaluation of the unchanged
// database, cross-checked for byte-identical output. Per-query rows are
// followed by aggregates for the query sets of Figures 3a (Q1-Q3), 3b (Q3-Q5)
// and 3c (Q1-Q3).
func EvalBench(opts EvalBenchOpts) EvalBenchReport {
	opts.applyDefaults()
	d := dataset.Soccer(opts.Soccer)
	queries := dataset.SoccerQueries()
	names := []string{"Q1", "Q2", "Q3", "Q4", "Q5"}

	rep := EvalBenchReport{
		Facts:       d.Len(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NaiveAgrees: true,
	}

	// Naive cross-check on an instance the reference evaluator can handle.
	small := dataset.Soccer(dataset.SoccerOpts{Tournaments: 2})
	for _, q := range queries {
		fast := tuplesFingerprint(eval.Result(q, small, eval.NoCache()))
		slow := tuplesFingerprint(eval.NaiveResult(q, small))
		if fast != slow {
			rep.NaiveAgrees = false
		}
	}

	byName := make(map[string]EvalBenchRow, len(queries))
	for i, q := range queries {
		cold, coldFP := timeEval(q, d, opts.Repeats, eval.NoCache())
		// Prime the cache once, then measure pure cache reads.
		eval.Result(q, d)
		warm, warmFP := timeEval(q, d, opts.Repeats*4)

		row := EvalBenchRow{
			Name:      names[i],
			Answers:   strings.Count(coldFP, "\n"),
			ColdNS:    cold.Nanoseconds(),
			WarmNS:    warm.Nanoseconds(),
			Identical: coldFP == warmFP,
		}
		if warm > 0 {
			row.WarmSpeedup = float64(cold) / float64(warm)
		}
		byName[row.Name] = row
		rep.Rows = append(rep.Rows, row)
	}

	for _, fig := range []struct {
		name    string
		members []string
	}{
		{"fig3a", []string{"Q1", "Q2", "Q3"}},
		{"fig3b", []string{"Q3", "Q4", "Q5"}},
		{"fig3c", []string{"Q1", "Q2", "Q3"}},
	} {
		agg := EvalBenchRow{Name: fig.name, Queries: fig.members, Identical: true}
		for _, m := range fig.members {
			r := byName[m]
			agg.Answers += r.Answers
			agg.ColdNS += r.ColdNS
			agg.WarmNS += r.WarmNS
			agg.Identical = agg.Identical && r.Identical
		}
		if agg.WarmNS > 0 {
			agg.WarmSpeedup = float64(agg.ColdNS) / float64(agg.WarmNS)
		}
		rep.Rows = append(rep.Rows, agg)
	}

	storeBench(&rep, d, queries, names, opts, byName)
	cloneBench(&rep, d)
	return rep
}

// storeBench materializes the benchmark facts into a disk-backed store and
// re-times cold evaluation there, recording the per-query penalty relative
// to the in-memory store.
func storeBench(rep *EvalBenchReport, d *db.Database, queries []*cq.Query, names []string, opts EvalBenchOpts, byName map[string]EvalBenchRow) {
	dir := opts.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "qoco-evalbench-*")
		if err != nil {
			rep.StoreError = err.Error()
			return
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	dsk, err := db.OpenDisk(dir, d.Schema(), opts.StoreShards)
	if err != nil {
		rep.StoreError = err.Error()
		return
	}
	defer dsk.Close()
	if dsk.Len() == 0 {
		if _, err := db.Copy(dsk, d); err != nil {
			rep.StoreError = err.Error()
			return
		}
		if err := dsk.Sync(); err != nil {
			rep.StoreError = err.Error()
			return
		}
	}
	for i, q := range queries {
		mem := byName[names[i]]
		memFP := tuplesFingerprint(eval.Result(q, d, eval.NoCache()))
		diskCold, diskFP := timeEval(q, dsk, opts.Repeats, eval.NoCache())
		row := StoreBenchRow{
			Name:       names[i],
			MemColdNS:  mem.ColdNS,
			DiskColdNS: diskCold.Nanoseconds(),
			Identical:  memFP == diskFP,
		}
		if mem.ColdNS > 0 {
			row.DiskPenalty = float64(row.DiskColdNS) / float64(mem.ColdNS)
		}
		rep.Store = append(rep.Store, row)
	}
}

// cloneBench times the historical O(|D|) physical copy against the
// copy-on-write Clone and Snapshot that replaced it in the job path.
func cloneBench(rep *EvalBenchReport, d *db.Database) {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		_ = db.DeepCopy(d)
		if el := time.Since(start); best < 0 || el < best {
			best = el
		}
	}
	rep.DeepCopyNS = best.Nanoseconds()
	const reps = 1000
	start := time.Now()
	for i := 0; i < reps; i++ {
		_ = d.Clone()
	}
	rep.CloneNS = time.Since(start).Nanoseconds() / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		_ = d.Snapshot()
	}
	rep.SnapshotNS = time.Since(start).Nanoseconds() / reps
}

// RenderEvalBench formats the benchmark report as an aligned text table.
func RenderEvalBench(rep EvalBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Evaluation benchmark — Fig3 workloads (%d facts, GOMAXPROCS %d, naive-agrees %v)\n",
		rep.Facts, rep.GOMAXPROCS, rep.NaiveAgrees)
	fmt.Fprintf(&b, "%-7s %8s %12s %12s %9s %-3s\n",
		"name", "answers", "cold", "warm", "warm-x", "ok")
	for _, r := range rep.Rows {
		ok := "yes"
		if !r.Identical {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-7s %8d %12s %12s %8.1fx %-3s\n",
			r.Name, r.Answers, time.Duration(r.ColdNS), time.Duration(r.WarmNS), r.WarmSpeedup, ok)
	}
	if len(rep.Store) > 0 {
		fmt.Fprintf(&b, "\nStore backends — cold evaluation, mem vs disk\n")
		fmt.Fprintf(&b, "%-7s %12s %12s %9s %-3s\n", "name", "mem", "disk", "penalty", "ok")
		for _, r := range rep.Store {
			ok := "yes"
			if !r.Identical {
				ok = "NO"
			}
			fmt.Fprintf(&b, "%-7s %12s %12s %8.2fx %-3s\n",
				r.Name, time.Duration(r.MemColdNS), time.Duration(r.DiskColdNS), r.DiskPenalty, ok)
		}
	}
	if rep.StoreError != "" {
		fmt.Fprintf(&b, "\nstore benchmark skipped: %s\n", rep.StoreError)
	}
	fmt.Fprintf(&b, "\nPer-job copies: deep copy %s, COW clone %s, snapshot %s\n",
		time.Duration(rep.DeepCopyNS), time.Duration(rep.CloneNS), time.Duration(rep.SnapshotNS))
	return b.String()
}
