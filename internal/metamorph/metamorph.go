// Package metamorph is the metamorphic workload fuzzer for the SQL/Datalog
// front end and the evaluation stack behind it. It generates seeded random
// SQL workloads over random schemas — joins, inequality predicates, unions,
// aggregates through internal/agg, and (via the Datalog path, which SQL
// cannot express) negation — parses them through internal/sqlfe, and runs
// each workload through a battery of equivalence-preserving rewrites:
//
//   - cache on/off (eval.NoCache) and cold-vs-warm cache
//   - IVM maintained vs cold (view.Engine registered vs unregistered)
//   - mem vs disk store
//   - union disjunct permutation (CQ-level and SQL-text-level)
//   - join/atom-order permutation (CQ-level and SQL-text-level)
//   - SQL → CQ → Datalog-text → CQ round trip (cq.Parse(q.String()))
//
// Every rewrite must produce byte-identical results at every step of a
// random edit script; a divergence is shrunk (reusing internal/check's
// shrinker for the data parts and a spec-level reducer for the SQL text)
// into a re-runnable seed plus a minimal SQL/Datalog reproduction.
//
// Each comparison oracle's scope, guardrails, and known false positives are
// documented under docs/oracles/ — an oracle that compares legs outside its
// documented scope reports noise, not bugs, so the boundaries are encoded as
// guardrail skips here and as tests in metamorph_test.go.
package metamorph

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrSkip marks a guardrail: the oracle declines the workload because the
// rewrite's equivalence guarantee does not cover it (e.g. IVM-maintained
// serving for aggregate queries, FROM-order permutation under SELECT *).
// Skips are counted per oracle — a silent guardrail that over-skips would
// void an oracle's coverage, so soaks surface the counts via Instrument.
var ErrSkip = errors.New("metamorph: workload outside oracle scope")

// skipf wraps ErrSkip with the reason, so reports can explain the guardrail.
func skipf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrSkip)
}

// Oracle is one equivalence comparison: Check returns nil when every leg
// agreed, an ErrSkip-wrapped error when the workload is outside the oracle's
// documented scope, and any other error on divergence.
type Oracle struct {
	// Name keys the oracle's skip counter and its boundary-notes file
	// docs/oracles/<Name>.md.
	Name string
	// Doc is a one-line summary of the comparison.
	Doc string
	// Check runs the comparison. It must not mutate the workload: the
	// shrinker re-runs it on shared candidates.
	Check func(*Workload) error
}

// Metric names recorded through Instrument.
const (
	// MetricWorkloads counts generated workloads fed to the battery.
	MetricWorkloads = "metamorph.workloads"
	// MetricDivergences counts oracle failures (real or not-yet-triaged).
	MetricDivergences = "metamorph.divergences"
	// MetricSkipPrefix prefixes the per-oracle guardrail-skip counters
	// (metamorph.skips.<oracle>).
	MetricSkipPrefix = "metamorph.skips."
	// MetricRunPrefix prefixes the per-oracle run counters
	// (metamorph.oracle_runs.<oracle>).
	MetricRunPrefix = "metamorph.oracle_runs."
)

// recorder is the package-level obs hook, mirroring eval.Instrument.
var recorder atomic.Pointer[obs.Recorder]

// Instrument directs metamorph counters into r (nil disables).
func Instrument(r *obs.Recorder) { recorder.Store(r) }

func rec() *obs.Recorder { return recorder.Load() }

func count(name string) {
	if r := rec(); r != nil {
		r.Inc(name)
	}
}

// Divergence is one oracle failure, with everything needed to re-run it.
type Divergence struct {
	Seed   int64  // check.Generate-style seed: Generate(Seed) rebuilds the workload
	Oracle string // failing oracle name
	Err    string // the divergence description
	Repro  string // minimized SQL/Datalog reproduction recipe
}

func (d Divergence) Error() string {
	return fmt.Sprintf("metamorph: seed %d: oracle %s: %s\n\nminimized reproduction:\n%s",
		d.Seed, d.Oracle, d.Err, d.Repro)
}

// CheckWorkload runs the full oracle battery over one workload. Guardrail
// skips are counted and do not fail the check; the first divergence is
// returned un-shrunk (callers shrink via Shrink for reporting).
func CheckWorkload(w *Workload) error {
	count(MetricWorkloads)
	for _, o := range Oracles() {
		if err := runOracle(o, w); err != nil {
			return err
		}
	}
	return nil
}

// runOracle runs one oracle with skip accounting; a non-skip error is
// wrapped with the oracle name.
func runOracle(o Oracle, w *Workload) error {
	err := o.Check(w)
	switch {
	case err == nil:
		count(MetricRunPrefix + o.Name)
		return nil
	case errors.Is(err, ErrSkip):
		count(MetricSkipPrefix + o.Name)
		return nil
	default:
		count(MetricDivergences)
		return fmt.Errorf("oracle %s: %w", o.Name, err)
	}
}

// Options configures a sweep.
type Options struct {
	// Seeds is the number of seeded workloads (1..Seeds); each runs the full
	// oracle battery, so Seeds is also the per-oracle width.
	Seeds int
	// KeepGoing collects every divergence instead of stopping at the first.
	KeepGoing bool
}

// Report summarizes a sweep for the qocobench driver and CI logs.
type Report struct {
	Seeds       int            `json:"seeds"`
	Workloads   int            `json:"workloads"`
	OracleRuns  map[string]int `json:"oracle_runs"`
	OracleSkips map[string]int `json:"oracle_skips"`
	Divergences []Divergence   `json:"divergences,omitempty"`
}

// Run sweeps seeded workloads through the battery, shrinking every
// divergence into a reproduction. The error is the first divergence (also
// present in the report), nil if every oracle agreed on every seed.
func Run(opts Options) (*Report, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 500
	}
	rep := &Report{
		Seeds:       opts.Seeds,
		OracleRuns:  make(map[string]int),
		OracleSkips: make(map[string]int),
	}
	for seed := int64(1); seed <= int64(opts.Seeds); seed++ {
		w := Generate(seed)
		rep.Workloads++
		count(MetricWorkloads)
		for _, o := range Oracles() {
			err := o.Check(w)
			if err == nil {
				rep.OracleRuns[o.Name]++
				count(MetricRunPrefix + o.Name)
				continue
			}
			if errors.Is(err, ErrSkip) {
				rep.OracleSkips[o.Name]++
				count(MetricSkipPrefix + o.Name)
				continue
			}
			count(MetricDivergences)
			min := Shrink(w, o.Check)
			rep.Divergences = append(rep.Divergences, Divergence{
				Seed:   seed,
				Oracle: o.Name,
				Err:    err.Error(),
				Repro:  min.Repro(),
			})
			if !opts.KeepGoing {
				return rep, rep.Divergences[0]
			}
			break // next seed; one divergence per workload is enough signal
		}
	}
	if len(rep.Divergences) > 0 {
		return rep, rep.Divergences[0]
	}
	return rep, nil
}

// Render formats the report as the qocobench table.
func (rep *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Metamorphic workload sweep — %d seeds, %d workloads\n", rep.Seeds, rep.Workloads)
	fmt.Fprintf(&b, "%-16s %8s %8s\n", "oracle", "runs", "skips")
	for _, o := range Oracles() {
		fmt.Fprintf(&b, "%-16s %8d %8d\n", o.Name, rep.OracleRuns[o.Name], rep.OracleSkips[o.Name])
	}
	fmt.Fprintf(&b, "divergences: %d\n", len(rep.Divergences))
	for _, d := range rep.Divergences {
		fmt.Fprintf(&b, "\n%s\n", d.Error())
	}
	return b.String()
}
