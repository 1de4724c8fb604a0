package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runMeta records the machine, build and settings results were measured
// with.
type runMeta struct {
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	Revision    string         `json:"vcs_revision"`
	Seconds     float64        `json:"seconds"`
	ReadPerS    float64        `json:"read_rate_per_s"`
	PollSleepS  float64        `json:"poll_sleep_s"`
	HTTPTimeout float64        `json:"http_timeout_s"`
	Workloads   []workloadMeta `json:"workloads"`
}

type workloadMeta struct {
	Name    string   `json:"name"`
	Why     string   `json:"why"`
	Queries []string `json:"queries"`
	Wrong   int      `json:"wrong_answers"`
	Missing int      `json:"missing_answers"`
	MinJobs int      `json:"min_jobs"`
	Server  bool     `json:"server"`
}

func newMeta(seconds time.Duration) runMeta {
	m := runMeta{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Revision:    "unknown",
		Seconds:     seconds.Seconds(),
		ReadPerS:    float64(time.Second) / float64(readInterval),
		PollSleepS:  pollSleep.Seconds(),
		HTTPTimeout: httpTimeout.Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			m.Revision += "+modified"
		}
	}
	for _, w := range workloads() {
		wm := workloadMeta{Name: w.name, Why: w.why, Wrong: w.wrong, Missing: w.missing, MinJobs: w.minJobs, Server: w.server}
		for _, q := range w.queries {
			wm.Queries = append(wm.Queries, q.String())
		}
		m.Workloads = append(m.Workloads, wm)
	}
	return m
}

// runRecord is one run as result files keep it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Jobs     int    `json:"jobs"`
	runOutput
}

// stat summarizes one metric over the runs of a workload.
type stat struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// resultFile is what -out writes: the metadata, every run, and per
// workload and metric the median and quartiles over the runs.
type resultFile struct {
	Meta    runMeta                    `json:"meta"`
	Runs    []runRecord                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"`
}

// appendResults adds runs to the result file at path, creating it when
// absent. Runs of different lengths do not mix.
func appendResults(path string, m runMeta, runs []runRecord) error {
	f := resultFile{Meta: m}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if f.Meta.Seconds != m.Seconds {
			return fmt.Errorf("%s holds %gs runs, not %gs", path, f.Meta.Seconds, m.Seconds)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	f.Summary = summarize(f.Runs)
	return writeJSON(path, f)
}

func loadResults(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func summarize(runs []runRecord) map[string]map[string]stat {
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, mv := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], mv.Value)
			units[name] = mv.Unit
		}
	}
	out := make(map[string]map[string]stat)
	for w, metrics := range values {
		out[w] = make(map[string]stat)
		for name, vs := range metrics {
			q1, med, q3 := quartiles(vs)
			out[w][name] = stat{Unit: units[name], Runs: len(vs), Median: med, Q1: q1, Q3: q3}
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of vs,
// the quartiles as Python's statistics.quantiles(vs, n=4) computes them.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), med, q(3)
}

func printSummary(w io.Writer, summary map[string]map[string]stat) {
	var names []string
	for name := range summary {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		var metrics []string
		for m := range summary[wl] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s := summary[wl][m]
			fmt.Fprintf(w, "%-14s %-28s %12.6g %-9s [%.6g, %.6g] over %d run(s)\n",
				wl, m, s.Median, s.Unit, s.Q1, s.Q3, s.Runs)
		}
	}
}

// writeTrace writes a traced run's metrics and spans.
func writeTrace(path string, m runMeta, rec runRecord, spans []span) error {
	return writeJSON(path, struct {
		Meta  runMeta   `json:"meta"`
		Run   runRecord `json:"run"`
		Spans []span    `json:"spans"`
	}{m, rec, spans})
}

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements "bench compare A.json B.json": for each end-to-end
// metric and workload it compares B (the change) with A (the baseline)
// under the metric's bound from BENCHMARK.json, and exits 1 when any pair
// got worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "", "BENCHMARK.json with the bounds (default: ./ or ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	bench, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	sameSeeds := seedsOf(a.Runs) == seedsOf(b.Runs)
	fmt.Printf("%-20s %-14s %12s %12s %8s %8s %6s  %s\n", "metric", "workload", "A median", "B median", "change", "spread", "bound", "verdict")
	status := 0
	for _, w := range workloads() {
		for _, m := range bench.EndToEnd {
			av, bv := metricValues(a.Runs, w.name, m.Name), metricValues(b.Runs, w.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			// Question counts repeat exactly for a seed, so with the same
			// seeds on both sides any change is real.
			exact := sameSeeds && m.Unit == "questions"
			v := judge(av, bv, m.Bound, m.Better == "higher", exact)
			if v.verdict == "worse" {
				status = 1
			}
			fmt.Printf("%-20s %-14s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, w.name, v.a, v.b, 100*v.change, 100*v.spread, 100*m.Bound, v.verdict)
		}
	}
	return status
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var err error
	for _, p := range candidates {
		var raw []byte
		if raw, err = os.ReadFile(p); err == nil {
			return bf, json.Unmarshal(raw, &bf)
		}
	}
	return bf, err
}

func seedsOf(runs []runRecord) string {
	var seeds []int64
	for _, r := range runs {
		seeds = append(seeds, r.Seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return fmt.Sprint(seeds)
}

func metricValues(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, mv.Value)
		}
	}
	return out
}

// comparison is one (metric, workload) row of compare.
type comparison struct {
	a, b    float64 // medians
	change  float64 // relative median change, positive when B is better
	spread  float64 // the wider relative quartile distance of the two sides
	verdict string  // better, worse, unchanged or unresolved
}

// judge applies the rule of the choosing-metrics guide: B is worse when its
// median is worse than A's by more than the bound. It is better when its
// median improves on A's by more than the bound, or, given at least ten
// pairs of runs, by more than A's own spread while winning nine in ten
// pairs. When either side spreads wider than the bound the pair is
// unresolved, unless every run of one side beats every run of the other.
func judge(a, b []float64, bound float64, higherBetter, exact bool) comparison {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	c := comparison{a: am, b: bm}
	c.change = (bm - am) / math.Abs(am)
	if !higherBetter {
		c.change = -c.change
	}
	spreadA := (a3 - a1) / math.Abs(am)
	c.spread = math.Max(spreadA, (b3-b1)/math.Abs(bm))
	wins := 0
	pairs := min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	dominates := func(x, y []float64) bool {
		for _, xv := range x {
			for _, yv := range y {
				if !better(xv, yv) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case exact && bm == am:
		c.verdict = "unchanged"
	case exact && c.change > 0:
		c.verdict = "better"
	case exact:
		c.verdict = "worse"
	case c.spread > bound:
		c.verdict = "unresolved"
		if dominates(b, a) {
			c.verdict = "better"
		} else if dominates(a, b) {
			c.verdict = "worse"
		}
	case c.change < -bound:
		c.verdict = "worse"
	case c.change > bound, pairs >= 10 && c.change > spreadA && wins*10 >= 9*pairs:
		c.verdict = "better"
	default:
		c.verdict = "unchanged"
	}
	return c
}
