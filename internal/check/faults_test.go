package check

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// faultSeeds returns the fault-injection seed matrix: QOCO_FAULT_SEED (a
// comma-separated list) when set — the CI disk-torture job runs one leg per
// seed list — otherwise a fixed default matrix (the same convention as the
// server soak in internal/server).
func faultSeeds(t *testing.T) []int64 {
	env := os.Getenv("QOCO_FAULT_SEED")
	if env == "" {
		return []int64{1, 7, 42}
	}
	var seeds []int64
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("bad QOCO_FAULT_SEED entry %q: %v", part, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// tortureWidth scales the sweeps: QOCO_DISK_TORTURE=long (the nightly CI
// leg) multiplies instance counts by 4 and removes the per-phase injection
// sampling cap.
func tortureWidth(n int) (instances, maxPoints int) {
	if os.Getenv("QOCO_DISK_TORTURE") == "long" {
		return n * 4, 0
	}
	return n, 8
}

// TestDiskFaults: the storage fault-injection property over seeded
// instances — a fault at sampled file-operation points (crash, failure,
// short write, sticky fsync), seeded single-bit flips, and compaction
// crashes; acked facts always survive, corruption is always detected or
// harmless, recovery never invents facts.
func TestDiskFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweeps rebuild stores per injection point; skipped under -short")
	}
	n, maxPoints := tortureWidth(20)
	sweep(t, diskTrials(t, n), CheckDiskFaultsSampled(maxPoints))
}

// TestDiskFaultsSeeded runs the unsampled property — a fault at EVERY
// counted file operation, including every compaction op — for each seed in
// the QOCO_FAULT_SEED matrix. This is the CI disk-torture job's entry
// point; locally it runs the small default matrix.
func TestDiskFaultsSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-width fault injection; skipped under -short")
	}
	for _, seed := range faultSeeds(t) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			ins := Generate(seed)
			if err := CheckDiskFaults(ins); err != nil {
				t.Fatalf("seed %d: %v\n\nreproduction:\n%s", seed, err, ins.Repro())
			}
		})
	}
}
