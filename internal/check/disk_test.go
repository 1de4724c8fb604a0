package check

import (
	"os"
	"testing"
)

// diskTrials widens the disk-backend sweeps when the CI disk matrix leg
// (QOCO_STORE=disk) runs: the dedicated leg gets the full width, a normal
// run covers the backend at a quarter of it, and -short caps as usual.
func diskTrials(t *testing.T, full int) int {
	if os.Getenv("QOCO_STORE") != "disk" {
		full /= 4
	}
	return trials(t, full)
}

// TestStoreParityDifferential: the disk-backed sharded store is observably
// identical to the in-memory store under the same edit script — Apply
// outcomes, Facts byte-for-byte, optimized evaluation (cold and warm
// cache), union evaluation, and a clean close/reopen.
func TestStoreParityDifferential(t *testing.T) {
	sweep(t, diskTrials(t, 400), CheckStoreParity)
}

// TestCleanerConvergenceDisk: the end-to-end cleaner converges over the
// disk backend exactly as over memory, and the cleaned store's edits
// survive a close/reopen.
func TestCleanerConvergenceDisk(t *testing.T) {
	sweep(t, diskTrials(t, 240), CheckCleanerDisk)
}

// TestDiskReopenDifferential: kill-and-reopen at seed-chosen sync points —
// every fact state synced to disk and untouched afterwards is recovered, no
// recovered fact was invented, and the recovered store stays writable.
func TestDiskReopenDifferential(t *testing.T) {
	sweep(t, diskTrials(t, 400), CheckDiskReopen)
}
