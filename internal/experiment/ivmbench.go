package experiment

import (
	"fmt"
	"math/rand"
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
}

func (o *IVMBenchOpts) applyDefaults() {
	if o.Edits == 0 {
		o.Edits = 40
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// IVMBenchRow is one query's measurement: the average per-edit cost of
// keeping the maintained view current (delta propagation + maintained read)
// against re-evaluating from cold after every edit.
type IVMBenchRow struct {
	Name string `json:"name"`
	// Answers is |Q(D)| before the edit script starts.
	Answers int `json:"answers"`
	// Edits is the number of semantically-changing edits measured.
	Edits int `json:"edits"`
	// ApplyNS is the average per-edit delta propagation (Engine.Apply);
	// MaintainedReadNS the average maintained eval.Result read after an edit;
	// ColdNS the average cache-bypassed re-evaluation after the same edit.
	ApplyNS          int64 `json:"apply_ns"`
	MaintainedReadNS int64 `json:"maintained_read_ns"`
	ColdNS           int64 `json:"cold_ns"`
	// Speedup = cold / (apply + maintained read) — how much cheaper keeping
	// the result current is than recomputing it per edit.
	Speedup float64 `json:"speedup"`
	// Identical reports that the maintained result was byte-identical to the
	// cold evaluation after every edit.
	Identical bool `json:"identical"`
}

// IVMBenchReport is the full benchmark output — the JSON shape of
// BENCH_ivm.json, the repo's incremental-maintenance trajectory.
type IVMBenchReport struct {
	Facts int   `json:"facts"`
	Edits int   `json:"edits"`
	Seed  int64 `json:"seed"`
	// Identical is the conjunction of every row's byte-identity check.
	Identical bool          `json:"identical"`
	Rows      []IVMBenchRow `json:"rows"`
}

// IVMBench measures counting-IVM maintenance on the Fig3 workloads (Soccer
// Q1-Q5): a seeded script of fact deletions and re-insertions runs against
// each query — a maintained view absorbing per-edit deltas, compared with
// recomputing from cold after the same edit — and every maintained read is
// checked byte-identical to the cold one (canonical order included).
func IVMBench(opts IVMBenchOpts) IVMBenchReport {
	opts.applyDefaults()
	dg := dataset.Soccer(opts.Soccer)
	queries := dataset.SoccerQueries()
	names := []string{"Q1", "Q2", "Q3", "Q4", "Q5"}

	rep := IVMBenchReport{Facts: dg.Len(), Edits: opts.Edits, Seed: opts.Seed, Identical: true}
	for i, q := range queries {
		row := ivmBenchQuery(names[i], q, dg, opts)
		rep.Identical = rep.Identical && row.Identical
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// ivmBenchQuery runs the edit script for one query over a fresh clone with
// its own engine registered as the store's maintainer.
func ivmBenchQuery(name string, q *cq.Query, dg *db.Database, opts IVMBenchOpts) IVMBenchRow {
	d := dg.Clone()
	engine := view.NewEngine(d)
	if err := engine.Ensure(q); err != nil {
		return IVMBenchRow{Name: name}
	}
	eval.SetMaintainer(d.ID(), engine)
	defer func() {
		eval.ClearMaintainer(d.ID(), engine)
		eval.InvalidateDB(d.ID())
	}()

	row := IVMBenchRow{
		Name:      name,
		Answers:   len(eval.Result(q, d)),
		Identical: true,
	}

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
		cold := eval.Result(q, d, eval.NoCache())
		coldTotal += time.Since(start)

		if tuplesFingerprint(maintained) != tuplesFingerprint(cold) {
			row.Identical = false
		}

		row.Edits++
	}

	if row.Edits > 0 {
		n := int64(row.Edits)
		row.ApplyNS = applyTotal.Nanoseconds() / n
		row.MaintainedReadNS = readTotal.Nanoseconds() / n
		row.ColdNS = coldTotal.Nanoseconds() / n
	}
	if denom := row.ApplyNS + row.MaintainedReadNS; denom > 0 {
		row.Speedup = float64(row.ColdNS) / float64(denom)
	}
	return row
}

// RenderIVMBench formats the benchmark report as an aligned text table.
func RenderIVMBench(rep IVMBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IVM benchmark — per-edit maintenance vs cold re-evaluation (%d facts, %d-edit script, seed %d)\n",
		rep.Facts, rep.Edits, rep.Seed)
	fmt.Fprintf(&b, "%-5s %8s %6s %12s %12s %12s %9s %-3s\n",
		"name", "answers", "edits", "apply", "read", "cold", "speedup", "ok")
	for _, r := range rep.Rows {
		ok := "yes"
		if !r.Identical {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%-5s %8d %6d %12s %12s %12s %8.1fx %-3s\n",
			r.Name, r.Answers, r.Edits,
			time.Duration(r.ApplyNS), time.Duration(r.MaintainedReadNS), time.Duration(r.ColdNS),
			r.Speedup, ok)
	}
	if !rep.Identical {
		b.WriteString("\nWARNING: maintained evaluation diverged from cold re-evaluation\n")
	}
	return b.String()
}
