package eval

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metric names the evaluator records under when instrumented.
const (
	// MetricResultSeconds is the latency of Result (full query evaluation).
	MetricResultSeconds = "eval.result.seconds"
	// MetricResultUnionSeconds is the latency of ResultUnion (UCQ
	// evaluation); without it UCQ workloads would be invisible at the
	// metrics endpoint, since only the per-disjunct Result timers fire.
	MetricResultUnionSeconds = "eval.result_union.seconds"
	// MetricAnswerHoldsUnionSeconds is the latency of AnswerHoldsUnion (UCQ
	// answer membership).
	MetricAnswerHoldsUnionSeconds = "eval.answer_holds_union.seconds"
	// MetricWitnessSeconds is the latency of one witness enumeration
	// (VisitWitnesses, which Witnesses runs): the witness sets of one answer,
	// which Algorithm 1 reads before its first question about it.
	MetricWitnessSeconds = "eval.witnesses.seconds"
	// MetricWitnessSets is the distribution of witness-set counts per answer.
	MetricWitnessSets = "eval.witnesses.sets"
	// MetricWitnessTuples is the distribution of distinct witness tuples per
	// answer (the naive question upper bound of Figure 3a).
	MetricWitnessTuples = "eval.witnesses.tuples"
	// MetricCacheHits / MetricCacheMisses count lookups against the
	// generation-stamped evaluation cache.
	MetricCacheHits   = "eval.cache.hits"
	MetricCacheMisses = "eval.cache.misses"
	// MetricCacheInvalidations counts cache sections discarded because the
	// database moved to a new edit generation.
	MetricCacheInvalidations = "eval.cache.invalidations"
	// MetricCacheDBInvalidations counts whole stores dropped from the cache
	// via InvalidateDB (a cleaning job finished and released its sections).
	MetricCacheDBInvalidations = "eval.cache.db_invalidations"
	// MetricMaintainedHits / MetricMaintainedMisses count evaluation calls
	// served from (or declined by) a registered incremental-view maintainer
	// (see Maintainer and internal/view). Misses are counted only when a
	// maintainer is registered for the store, so the ratio measures
	// maintained-mode coverage.
	MetricMaintainedHits   = "eval.maintained.hits"
	MetricMaintainedMisses = "eval.maintained.misses"
)

// recorder holds the process recorder the evaluator reports into. The
// evaluator's API is pure functions, so instrumentation is a package-level
// hook; an atomic pointer keeps Instrument safe to call concurrently with
// running evaluations.
var recorder atomic.Pointer[obs.Recorder]

// Instrument directs evaluator metrics into r (nil disables). Typically
// called once at process start by the server or CLI.
func Instrument(r *obs.Recorder) { recorder.Store(r) }

// rec returns the active recorder; nil (recording disabled) is valid, every
// obs method is nil-safe.
func rec() *obs.Recorder { return recorder.Load() }

// observeWitnesses reports one witness enumeration: latency, number of
// distinct witness sets, and number of distinct witness tuples.
func observeWitnesses(start time.Time, sets, tuples int) {
	r := rec()
	if r == nil {
		return
	}
	r.ObserveDuration(MetricWitnessSeconds, time.Since(start))
	r.Observe(MetricWitnessSets, float64(sets))
	r.Observe(MetricWitnessTuples, float64(tuples))
}
