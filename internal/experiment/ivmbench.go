package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/view"
)

// IVMBenchOpts tunes the incremental-maintenance benchmark figure.
type IVMBenchOpts struct {
	// Edits is the length of the seeded toggle script (default 40).
	Edits int
	// Seed drives the edit script (default 1).
	Seed int64
	// Soccer sizes the benchmark database (default full 20 tournaments).
	Soccer dataset.SoccerOpts

	// repeats is how many times each query's view is built and its script
	// run (default benchRepeats; tests take fewer).
	repeats int
}

func (o *IVMBenchOpts) applyDefaults() {
	if o.Edits == 0 {
		o.Edits = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.repeats == 0 {
		o.repeats = benchRepeats
	}
}

// IVMBenchRow is one query's measurement: the cost of building its
// maintained view, and the per-edit cost of keeping the view current (delta
// propagation + maintained read) against re-evaluating from cold after
// every edit.
type IVMBenchRow struct {
	Name string `json:"name"`
	// Answers is |Q(D)| before the edit script starts.
	Answers int `json:"answers"`
	// Edits is the number of semantically-changing edits measured per repeat.
	Edits int `json:"edits"`
	// EnsureNS is the view build every cleaning job pays before its first
	// question (Engine.Ensure on a fresh engine). ApplyNS is the per-edit
	// delta propagation (Engine.Apply), MaintainedReadNS the maintained
	// eval.Result read after an edit, and ColdNS the cache-bypassed
	// re-evaluation after the same edit; each of these is a repeat's mean
	// over its edits. Every cell is the median of the repeats, with the
	// repeats' quartiles beside it.
	EnsureNS           int64 `json:"ensure_ns"`
	EnsureQ1NS         int64 `json:"ensure_q1_ns"`
	EnsureQ3NS         int64 `json:"ensure_q3_ns"`
	ApplyNS            int64 `json:"apply_ns"`
	ApplyQ1NS          int64 `json:"apply_q1_ns"`
	ApplyQ3NS          int64 `json:"apply_q3_ns"`
	MaintainedReadNS   int64 `json:"maintained_read_ns"`
	MaintainedReadQ1NS int64 `json:"maintained_read_q1_ns"`
	MaintainedReadQ3NS int64 `json:"maintained_read_q3_ns"`
	ColdNS             int64 `json:"cold_ns"`
	ColdQ1NS           int64 `json:"cold_q1_ns"`
	ColdQ3NS           int64 `json:"cold_q3_ns"`
	// Speedup = cold / (apply + maintained read), of the medians — how much
	// cheaper keeping the result current is than recomputing it per edit.
	Speedup float64 `json:"speedup"`
	// Identical reports that the maintained result was byte-identical to the
	// cold evaluation after every edit of every repeat.
	Identical bool `json:"identical"`
}

// IVMBenchReport is the full benchmark output — the JSON shape of
// BENCH_ivm.json, the repo's incremental-maintenance trajectory.
type IVMBenchReport struct {
	Facts      int   `json:"facts"`
	NProc      int   `json:"nproc"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	Repeats    int   `json:"repeats"`
	Edits      int   `json:"edits"`
	Seed       int64 `json:"seed"`
	// Identical is the conjunction of every row's byte-identity check.
	Identical bool          `json:"identical"`
	Rows      []IVMBenchRow `json:"rows"`
}

// IVMBench measures counting-IVM maintenance on the Fig3 workloads (Soccer
// Q1-Q5). Each repeat builds each query's maintained view over a fresh
// clone and runs a seeded script of fact deletions and re-insertions
// against it — the view absorbing per-edit deltas, compared with
// recomputing from cold after the same edit — and every maintained read is
// checked byte-identical to the cold one (canonical order included).
func IVMBench(opts IVMBenchOpts) IVMBenchReport {
	opts.applyDefaults()
	dg := dataset.Soccer(opts.Soccer)
	queries := dataset.SoccerQueries()
	names := []string{"Q1", "Q2", "Q3", "Q4", "Q5"}

	rep := IVMBenchReport{
		Facts:      dg.Len(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Repeats:    opts.repeats,
		Edits:      opts.Edits,
		Seed:       opts.Seed,
		Identical:  true,
	}
	for i, q := range queries {
		row := IVMBenchRow{Name: names[i], Identical: true}
		var ensure, apply, read, cold timing
		for r := 0; r < opts.repeats; r++ {
			m, ok := ivmBenchRun(q, dg, opts)
			if !ok {
				row.Identical = false
				break
			}
			row.Answers, row.Edits = m.answers, m.edits
			row.Identical = row.Identical && m.identical
			ensure, apply = append(ensure, m.ensure), append(apply, m.apply)
			read, cold = append(read, m.read), append(cold, m.cold)
		}
		row.EnsureQ1NS, row.EnsureNS, row.EnsureQ3NS = ensure.quartiles()
		row.ApplyQ1NS, row.ApplyNS, row.ApplyQ3NS = apply.quartiles()
		row.MaintainedReadQ1NS, row.MaintainedReadNS, row.MaintainedReadQ3NS = read.quartiles()
		row.ColdQ1NS, row.ColdNS, row.ColdQ3NS = cold.quartiles()
		if denom := row.ApplyNS + row.MaintainedReadNS; denom > 0 {
			row.Speedup = float64(row.ColdNS) / float64(denom)
		}
		rep.Identical = rep.Identical && row.Identical
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// ivmRun is one repeat of one query: the view build, and the means over
// the edits of the per-edit timings, in nanoseconds.
type ivmRun struct {
	answers, edits            int
	ensure, apply, read, cold int64
	identical                 bool
}

// ivmBenchRun builds the query's view over a fresh clone, with its own
// engine registered as the store's maintainer, and runs the edit script.
// It reports false when the view could not be built.
func ivmBenchRun(q *cq.Query, dg *db.Database, opts IVMBenchOpts) (ivmRun, bool) {
	d := dg.Clone()
	engine := view.NewEngine(d)
	runtime.GC() // no repeat pays for an earlier one's garbage
	start := time.Now()
	if err := engine.Ensure(q); err != nil {
		return ivmRun{}, false
	}
	m := ivmRun{ensure: time.Since(start).Nanoseconds(), identical: true}
	eval.SetMaintainer(d.ID(), engine)
	defer func() {
		eval.ClearMaintainer(d.ID(), engine)
		eval.InvalidateDB(d.ID())
	}()
	m.answers = len(eval.Result(q, d))

	// Seeded toggle script: delete a present fact or re-insert one deleted
	// earlier, keeping the database near its original size. Facts are drawn
	// from a sorted snapshot so the script is deterministic per seed.
	facts := dg.Facts()
	sort.Slice(facts, func(i, j int) bool { return facts[i].Key() < facts[j].Key() })
	rng := rand.New(rand.NewSource(opts.Seed))

	var applyTotal, readTotal, coldTotal time.Duration
	for step := 0; step < opts.Edits; step++ {
		f := facts[rng.Intn(len(facts))]
		var e db.Edit
		if d.Has(f) {
			e = db.Deletion(f)
		} else {
			e = db.Insertion(f)
		}
		if changed, err := d.Apply(e); err != nil || !changed {
			continue
		}

		start := time.Now()
		engine.Apply(e)
		applyTotal += time.Since(start)

		// The edit moved the generation, so the cache section for it is empty:
		// this read is served by the maintainer, not the cache.
		start = time.Now()
		maintained := eval.Result(q, d)
		readTotal += time.Since(start)

		start = time.Now()
		fresh := eval.Result(q, d, eval.NoCache())
		coldTotal += time.Since(start)

		if tuplesFingerprint(maintained) != tuplesFingerprint(fresh) {
			m.identical = false
		}
		m.edits++
	}
	if m.edits > 0 {
		n := int64(m.edits)
		m.apply = applyTotal.Nanoseconds() / n
		m.read = readTotal.Nanoseconds() / n
		m.cold = coldTotal.Nanoseconds() / n
	}
	return m, true
}

// RenderIVMBench formats the benchmark report as an aligned text table.
func RenderIVMBench(rep IVMBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IVM benchmark — view build, per-edit maintenance vs cold re-evaluation (%d facts, %d-edit script, seed %d, nproc %d, GOMAXPROCS %d, medians of %d repeats)\n",
		rep.Facts, rep.Edits, rep.Seed, rep.NProc, rep.GOMAXPROCS, rep.Repeats)
	fmt.Fprintf(&b, "%-5s %8s %6s %12s %12s %12s %12s %9s %-3s\n",
		"name", "answers", "edits", "ensure", "apply", "read", "cold", "speedup", "ok")
	for _, r := range rep.Rows {
		ok := "yes"
		if !r.Identical {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-5s %8d %6d %12s %12s %12s %12s %8.1fx %-3s\n",
			r.Name, r.Answers, r.Edits, time.Duration(r.EnsureNS),
			time.Duration(r.ApplyNS), time.Duration(r.MaintainedReadNS), time.Duration(r.ColdNS),
			r.Speedup, ok)
	}
	if !rep.Identical {
		b.WriteString("\nWARNING: maintained evaluation diverged from cold re-evaluation\n")
	}
	return b.String()
}
