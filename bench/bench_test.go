package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
)

// benchmarkJSON is the full BENCHMARK.json schema the tests check the
// program against.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smallRun runs a workload on 2 Soccer tournaments for 2 jobs, with at most
// 2 wrong and 2 missing answers so the small instance can hold them.
func smallRun(t *testing.T, w workload, trace bool) runOutput {
	t.Helper()
	w.wrong, w.missing = min(w.wrong, 2), min(w.missing, 2)
	out, _, failures := runWorkload(context.Background(), runOptions{
		workload: w, seed: 7, trace: trace, maxJobs: 2,
		soccer: dataset.SoccerOpts{Tournaments: 2}, dir: t.TempDir(),
	})
	for _, err := range failures {
		t.Errorf("%s: %v", w.name, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 2 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, out.Correct, out.Attempted, out.Failed)
	}
	return out
}

func names(m map[string]metricValue) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads() {
		out := smallRun(t, w, false)
		if got := names(out.Metrics); !equal(got, e2e) {
			t.Errorf("%s end-to-end metrics %v, BENCHMARK.json lists %v", w.name, got, e2e)
		}
		for name, v := range out.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, name, v.Value)
			}
		}
		traced := smallRun(t, w, true)
		if got := names(traced.Metrics); !equal(got, layer) {
			t.Errorf("%s per-layer metrics %v, BENCHMARK.json lists %v", w.name, got, layer)
		}
		for _, name := range []string{"crowd.busy_s", "core.self_s", "db.apply.calls", "eval.result.calls"} {
			if !(traced.Metrics[name].Value > 0) {
				t.Errorf("%s: traced %s = %v, want a positive value", w.name, name, traced.Metrics[name].Value)
			}
		}
		if w.server {
			for _, name := range []string{"wal.fsyncs", "server.http.answer_s", "server.reads", "db.fs.write_bytes"} {
				if !(traced.Metrics[name].Value > 0) {
					t.Errorf("%s: traced %s = %v, want a positive value", w.name, name, traced.Metrics[name].Value)
				}
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuestionsRepeatForASeed checks the question count is a function of
// the seed: two runs of the same jobs ask the same questions.
func TestQuestionsRepeatForASeed(t *testing.T) {
	w, _ := workloadNamed("fig3b-insert")
	a := smallRun(t, w, false).Metrics["questions_per_job"].Value
	b := smallRun(t, w, false).Metrics["questions_per_job"].Value
	if a != b {
		t.Errorf("questions_per_job %v then %v for the same seed", a, b)
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("metric or workload name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		check(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, program has %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(ws))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d is %q (%q), program has %q (%q)", i, w.Name, w.Why, ws[i].name, ws[i].why)
		}
	}
}

// TestSelfTimes checks self time on a synthetic span tree: children that
// overlap each other, a child that outlives its parent, and a grandchild
// that only counts against its own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40}, // overlaps 2: together they cover 10-40
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 2, Start: 12, End: 18},
		{ID: 6, Start: 50, End: 60}, // a root inside job's interval is not its child
	}
	want := map[int]time.Duration{1: 100 - 30 - 10, 2: 20 - 6, 3: 20, 4: 30, 5: 6, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4),
// the definition the run-to-run spread is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name  string
		b     []float64
		exact bool
		want  string
	}{
		{"same", []float64{1.01, 0.99, 1.00, 1.02, 1.00}, false, "unchanged"},
		{"slower beyond bound", []float64{1.20, 1.21, 1.19, 1.22, 1.20}, false, "worse"},
		{"faster beyond bound", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, false, "better"},
		{"faster within bound, five pairs", []float64{0.90, 0.91, 0.89, 0.90, 0.92}, false, "unchanged"},
		{"too noisy", []float64{0.8, 1.3, 0.9, 1.2, 1.0}, false, "unresolved"},
		{"exact count moved", []float64{1.01, 1.01, 1.01, 1.01, 1.01}, true, "worse"},
	} {
		if got := judge(steady, c.b, 0.1, false, c.exact).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
