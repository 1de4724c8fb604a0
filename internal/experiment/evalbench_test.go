package experiment

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestEvalBenchSmoke runs the eval benchmark on a reduced instance and checks
// the report's structure and its correctness invariants (the timings
// themselves are machine-dependent and recorded, not asserted).
func TestEvalBenchSmoke(t *testing.T) {
	rep := EvalBench(EvalBenchOpts{repeats: 1, Soccer: dataset.SoccerOpts{Tournaments: 2}})
	if !rep.NaiveAgrees {
		t.Error("indexed evaluator disagreed with the naive reference")
	}
	if rep.Facts == 0 || rep.GOMAXPROCS == 0 {
		t.Errorf("report header %+v, want facts>0 and gomaxprocs>0", rep)
	}
	wantRows := []string{"Q1", "Q2", "Q3", "Q4", "Q5", "fig3a", "fig3b", "fig3c"}
	if len(rep.Rows) != len(wantRows) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(wantRows))
	}
	for i, r := range rep.Rows {
		if r.Name != wantRows[i] {
			t.Errorf("row %d named %q, want %q", i, r.Name, wantRows[i])
		}
		if !r.Identical {
			t.Errorf("row %s: cold/warm outputs not byte-identical", r.Name)
		}
		if r.ColdNS <= 0 || r.WarmNS <= 0 {
			t.Errorf("row %s has non-positive timings: %+v", r.Name, r)
		}
	}

	text := RenderEvalBench(rep)
	for _, want := range []string{"Q1", "fig3b", "naive-agrees true"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table missing %q:\n%s", want, text)
		}
	}
}

// TestEvalBenchDivergence: the check that fails qocobench -fig eval names
// the naive cross-check, a cold/warm row or a mem/disk store row that
// diverged, and passes a report whose checks all held.
func TestEvalBenchDivergence(t *testing.T) {
	ok := func() EvalBenchReport {
		return EvalBenchReport{
			NaiveAgrees: true,
			Rows:        []EvalBenchRow{{Name: "Q1", Identical: true}, {Name: "fig3a", Identical: true}},
			Store:       []StoreBenchRow{{Name: "Q1", Identical: true}},
		}
	}
	if d := ok().Divergence(); d != "" {
		t.Fatalf("a report whose checks held diverged: %s", d)
	}
	for _, c := range []struct {
		name  string
		spoil func(*EvalBenchReport)
		want  string
	}{
		{"naive", func(r *EvalBenchReport) { r.NaiveAgrees = false }, "naive"},
		{"row", func(r *EvalBenchReport) { r.Rows[1].Identical = false }, "fig3a"},
		{"store", func(r *EvalBenchReport) { r.Store[0].Identical = false }, "disk"},
	} {
		rep := ok()
		c.spoil(&rep)
		if d := rep.Divergence(); !strings.Contains(d, c.want) {
			t.Errorf("%s: Divergence() = %q, want it to name %q", c.name, d, c.want)
		}
	}
}

// TestTimingQuartiles: a cell's quartiles follow Python's
// statistics.quantiles(n=4), the method bench/ reports its runs with.
func TestTimingQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          timing
		q1, med, q3 int64
	}{
		{timing{50, 10, 40, 20, 30}, 15, 30, 45},
		{timing{40, 10, 30, 20}, 12, 25, 37},
		{timing{7}, 7, 7, 7},
	} {
		q1, med, q3 := c.in.quartiles()
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %d, %d, %d; want %d, %d, %d", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
