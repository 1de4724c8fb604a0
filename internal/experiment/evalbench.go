package experiment

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

// EvalBenchOpts tunes the evaluation micro-benchmark figure.
type EvalBenchOpts struct {
	// Soccer sizes the benchmark database (default full 20 tournaments).
	Soccer dataset.SoccerOpts
	// StoreDir is where the disk-backed store of the mem-vs-disk comparison
	// lives (empty = fresh temp dir, removed afterwards).
	StoreDir string

	// repeats is how many timed repetitions each measurement takes the
	// median and quartiles of (default 21; tests take fewer).
	repeats int
}

func (o *EvalBenchOpts) applyDefaults() {
	if o.repeats == 0 {
		o.repeats = 21
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
	// unchanged database through the generation-stamped cache. Each is the
	// median of its repeats, with the repeats' quartiles beside it; an
	// aggregate's repeat sums its members' repeats of the same index.
	ColdNS   int64 `json:"cold_ns"`
	ColdQ1NS int64 `json:"cold_q1_ns"`
	ColdQ3NS int64 `json:"cold_q3_ns"`
	WarmNS   int64 `json:"warm_ns"`
	WarmQ1NS int64 `json:"warm_q1_ns"`
	WarmQ3NS int64 `json:"warm_q3_ns"`
	// WarmSpeedup = cold/warm, of the medians.
	WarmSpeedup float64 `json:"warm_speedup"`
	// Identical reports that cold and warm evaluation produced
	// byte-identical answer sets.
	Identical bool `json:"identical"`
}

// StoreBenchRow compares cold evaluation of one query on the in-memory
// store against the disk-backed store holding the same facts.
type StoreBenchRow struct {
	Name string `json:"name"`
	// MemColdNS and DiskColdNS are cache-bypassed evaluation times, timed
	// in alternation (a mem repeat, then a disk repeat): the medians, with
	// the quartiles beside them.
	MemColdNS    int64 `json:"mem_cold_ns"`
	MemColdQ1NS  int64 `json:"mem_cold_q1_ns"`
	MemColdQ3NS  int64 `json:"mem_cold_q3_ns"`
	DiskColdNS   int64 `json:"disk_cold_ns"`
	DiskColdQ1NS int64 `json:"disk_cold_q1_ns"`
	DiskColdQ3NS int64 `json:"disk_cold_q3_ns"`
	// DiskPenalty = disk/mem, of the medians. The disk store reads through
	// the same db.Relation index as the mem store, so it reads near 1; it
	// rises if the two read paths part again.
	DiskPenalty float64 `json:"disk_penalty"`
	// Identical reports byte-identical answers across the two backends.
	Identical bool `json:"identical"`
}

// EvalBenchReport is the full benchmark output — the JSON shape of
// BENCH_eval.json, the repo's evaluation-performance trajectory.
type EvalBenchReport struct {
	Facts      int `json:"facts"`
	NProc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Repeats    int `json:"repeats"`
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

// timing is the repeats of one cell, in nanoseconds.
type timing []int64

// timeEval times one evaluation configuration repeats times, returning the
// timings and the fingerprint of the (identical across runs) output. A cold
// configuration collects garbage before each repeat, so no repeat pays for
// an earlier one's.
func timeEval(q *cq.Query, d db.Reader, repeats int, opts ...eval.Option) (timing, string) {
	ts := make(timing, 0, repeats)
	var fp string
	for i := 0; i < repeats; i++ {
		if len(opts) > 0 {
			runtime.GC()
		}
		start := time.Now()
		out := eval.Result(q, d, opts...)
		ts = append(ts, time.Since(start).Nanoseconds())
		fp = tuplesFingerprint(out)
	}
	return ts, fp
}

// quartiles returns the timings' first quartile, median and third quartile
// by Python's statistics.quantiles(n=4) (the exclusive method, as bench/
// reports its runs).
func (t timing) quartiles() (q1, med, q3 int64) {
	x := slices.Clone(t)
	slices.Sort(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	at := func(i int) int64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := int64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// plus returns the per-repeat sums of two timings of equal length.
func (t timing) plus(o timing) timing {
	out := slices.Clone(t)
	for i := range out {
		out[i] += o[i]
	}
	return out
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
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Repeats:     opts.repeats,
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

	type measured struct {
		row        EvalBenchRow
		cold, warm timing
	}
	byName := make(map[string]measured, len(queries))
	for i, q := range queries {
		cold, coldFP := timeEval(q, d, opts.repeats, eval.NoCache())
		// Prime the cache once, then measure pure cache reads.
		eval.Result(q, d)
		warm, warmFP := timeEval(q, d, opts.repeats*4)
		row := EvalBenchRow{
			Name:      names[i],
			Answers:   strings.Count(coldFP, "\n"),
			Identical: coldFP == warmFP,
		}
		row.setTimings(cold, warm)
		byName[row.Name] = measured{row, cold, warm}
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
		var cold, warm timing
		for _, name := range fig.members {
			m := byName[name]
			agg.Answers += m.row.Answers
			agg.Identical = agg.Identical && m.row.Identical
			if cold == nil {
				cold, warm = m.cold, m.warm
			} else {
				cold, warm = cold.plus(m.cold), warm.plus(m.warm)
			}
		}
		agg.setTimings(cold, warm)
		rep.Rows = append(rep.Rows, agg)
	}

	storeBench(&rep, d, queries, names, opts)
	cloneBench(&rep, d)
	return rep
}

// setTimings records the cold and warm timings' medians and quartiles.
func (r *EvalBenchRow) setTimings(cold, warm timing) {
	r.ColdQ1NS, r.ColdNS, r.ColdQ3NS = cold.quartiles()
	r.WarmQ1NS, r.WarmNS, r.WarmQ3NS = warm.quartiles()
	if r.WarmNS > 0 {
		r.WarmSpeedup = float64(r.ColdNS) / float64(r.WarmNS)
	}
}

// storeBench materializes the benchmark facts into a disk-backed store and
// times cold evaluation on both stores, a mem repeat then a disk repeat, so
// both see the same machine state; it records the per-query penalty of the
// disk store.
func storeBench(rep *EvalBenchReport, d *db.Database, queries []*cq.Query, names []string, opts EvalBenchOpts) {
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
	dsk, err := db.OpenDisk(dir, d.Schema(), 0)
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
		var mem, disk timing
		var memFP, diskFP string
		for r := 0; r < opts.repeats; r++ {
			m, fp := timeEval(q, d, 1, eval.NoCache())
			mem, memFP = append(mem, m...), fp
			k, fp := timeEval(q, dsk, 1, eval.NoCache())
			disk, diskFP = append(disk, k...), fp
		}
		row := StoreBenchRow{Name: names[i], Identical: memFP == diskFP}
		row.MemColdQ1NS, row.MemColdNS, row.MemColdQ3NS = mem.quartiles()
		row.DiskColdQ1NS, row.DiskColdNS, row.DiskColdQ3NS = disk.quartiles()
		if row.MemColdNS > 0 {
			row.DiskPenalty = float64(row.DiskColdNS) / float64(row.MemColdNS)
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
	fmt.Fprintf(&b, "Evaluation benchmark — Fig3 workloads (%d facts, nproc %d, GOMAXPROCS %d, medians of %d repeats, naive-agrees %v)\n",
		rep.Facts, rep.NProc, rep.GOMAXPROCS, rep.Repeats, rep.NaiveAgrees)
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
