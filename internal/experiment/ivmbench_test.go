package experiment

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestIVMBenchSmoke runs the IVM benchmark on a reduced instance and checks
// the report's structure: every query's view build and per-edit cells are
// timed over the repeats, with quartiles around the median, and every
// maintained read matched the cold one (the timings themselves are
// machine-dependent and recorded, not asserted).
func TestIVMBenchSmoke(t *testing.T) {
	rep := IVMBench(IVMBenchOpts{Edits: 8, repeats: 3, Soccer: dataset.SoccerOpts{Tournaments: 2}})
	if !rep.Identical {
		t.Error("maintained evaluation diverged from cold re-evaluation")
	}
	if rep.Repeats != 3 || rep.GOMAXPROCS == 0 || rep.NProc == 0 {
		t.Errorf("report header %+v, want 3 repeats and the machine shape", rep)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows, want one per Soccer query", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Edits == 0 {
			t.Errorf("row %s measured no edit", r.Name)
		}
		for _, c := range []struct {
			name        string
			q1, med, q3 int64
		}{
			{"ensure", r.EnsureQ1NS, r.EnsureNS, r.EnsureQ3NS},
			{"apply", r.ApplyQ1NS, r.ApplyNS, r.ApplyQ3NS},
			{"read", r.MaintainedReadQ1NS, r.MaintainedReadNS, r.MaintainedReadQ3NS},
			{"cold", r.ColdQ1NS, r.ColdNS, r.ColdQ3NS},
		} {
			if c.med <= 0 || c.q1 > c.med || c.med > c.q3 {
				t.Errorf("row %s %s: quartiles %d, %d, %d", r.Name, c.name, c.q1, c.med, c.q3)
			}
		}
	}
	if text := RenderIVMBench(rep); !strings.Contains(text, "ensure") || !strings.Contains(text, "medians of 3 repeats") {
		t.Errorf("rendered table lacks the ensure column or the repeats:\n%s", text)
	}
}
