package experiment

import (
	"testing"
	"time"
)

// TestOverloadSweepRowsAddUp runs the sweep briefly and checks each row's
// bookkeeping. How many submissions are shed depends on timing, so no count
// is asserted.
func TestOverloadSweepRowsAddUp(t *testing.T) {
	rows := OverloadSweep(100 * time.Millisecond)
	if len(rows) != len(overloadRates) {
		t.Fatalf("%d rows, want one per rate (%d)", len(rows), len(overloadRates))
	}
	for _, r := range rows {
		if r.Submitted != r.Admitted+r.Shed {
			t.Errorf("rate %v: submitted %d != admitted %d + shed %d", r.OfferedRate, r.Submitted, r.Admitted, r.Shed)
		}
		if want := float64(r.Shed) / float64(r.Submitted); r.ShedRate != want {
			t.Errorf("rate %v: shed rate %v, want %d/%d = %v", r.OfferedRate, r.ShedRate, r.Shed, r.Submitted, want)
		}
		if r.P50Wait > r.P99Wait {
			t.Errorf("rate %v: p50 wait %v > p99 wait %v", r.OfferedRate, r.P50Wait, r.P99Wait)
		}
	}
}
