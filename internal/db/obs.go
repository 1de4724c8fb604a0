package db

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Metric names recorded when the package is instrumented.
const (
	// MetricRecoveryTornTails counts files whose reopen found (and
	// truncated) a torn tail from a crash mid-append.
	MetricRecoveryTornTails = "db.recovery.torn_tails"
	// MetricRecoveryTornBytes counts the bytes those truncations discarded.
	MetricRecoveryTornBytes = "db.recovery.torn_bytes"
	// MetricRecoveryRecords counts the symbol and fact records replayed at
	// open (from a legacy store's files when the open migrates it).
	MetricRecoveryRecords = "db.recovery.records_replayed"
	// MetricRecoveryQuarantines counts corrupt files quarantined (each one
	// also leaves the sticky QUARANTINE marker).
	MetricRecoveryQuarantines = "db.recovery.quarantines"

	// MetricCompactionRuns counts Compact calls that rewrote the log;
	// MetricCompactionReclaimed the log bytes reclaimed;
	// MetricCompactionErrors the failed compaction attempts.
	MetricCompactionRuns      = "db.compaction.runs"
	MetricCompactionReclaimed = "db.compaction.reclaimed_bytes"
	MetricCompactionErrors    = "db.compaction.errors"
)

// recorder holds the process recorder the package reports into; an atomic
// pointer keeps Instrument safe to call concurrently with open stores.
var recorder atomic.Pointer[obs.Recorder]

// Instrument directs db metrics (recovery, quarantine, compaction) into r
// (nil disables). Typically called once at process start.
func Instrument(r *obs.Recorder) { recorder.Store(r) }

// rec returns the active recorder; nil is valid, obs methods are nil-safe.
func rec() *obs.Recorder { return recorder.Load() }
