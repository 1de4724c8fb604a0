package eval

import (
	"sync"

	"repro/internal/cq"
	"repro/internal/db"
)

// A Maintainer serves evaluation results from incrementally maintained state
// instead of enumeration. The view engine (internal/view) registers itself
// here per store ID; Result, AnswerHolds and Holds consult the registered
// maintainer between the generation-stamped cache and cold evaluation.
// Witnesses does not: a maintainer keeps support counts, not witness sets,
// and the cleaner reads the witnesses of an answer only when removing it.
//
// Every method returns (value, ok). ok == false means the maintainer cannot
// serve this call — the query is not maintained, the reader's generation does
// not match the maintained state (someone edited the store without
// propagating the delta), or the call shape is unsupported — and the caller
// falls back to cold evaluation. A maintainer must never return ok == true
// with a value that differs from what cold evaluation would produce: the
// differential harness (internal/check) enforces byte-identity against
// NaiveResult.
//
// Concurrency contract: maintained reads follow the same rules as the store
// they mirror — edits (and maintainer updates) must be serialized against
// reads by the caller. Concurrent read-only calls are safe.
type Maintainer interface {
	// MaintainedResult returns Q(D) for a maintained query.
	MaintainedResult(d db.Reader, q *cq.Query) ([]db.Tuple, bool)
	// MaintainedAnswerHolds reports whether t ∈ Q(D).
	MaintainedAnswerHolds(d db.Reader, q *cq.Query, t db.Tuple) (bool, bool)
	// MaintainedHolds reports whether the query body is satisfiable under the
	// seed. Implementations typically support only the empty seed (the
	// cleaner's insertion loop asks exactly that) and decline the rest.
	MaintainedHolds(d db.Reader, q *cq.Query, seed Assignment) (bool, bool)
}

// maintainers maps store ID -> registered maintainer. A RWMutex keeps the
// lookup cheap on the evaluation hot path; registration is rare (once per
// cleaning job).
var maintainers = struct {
	sync.RWMutex
	byID map[uint64]Maintainer
}{byID: make(map[uint64]Maintainer)}

// SetMaintainer registers m as the maintainer for the store with the given
// ID, replacing any previous registration.
func SetMaintainer(id uint64, m Maintainer) {
	maintainers.Lock()
	maintainers.byID[id] = m
	maintainers.Unlock()
}

// ClearMaintainer removes the registration for the store ID, but only if m is
// still the registered maintainer (a finished job must not clobber a
// successor's registration).
func ClearMaintainer(id uint64, m Maintainer) {
	maintainers.Lock()
	if maintainers.byID[id] == m {
		delete(maintainers.byID, id)
	}
	maintainers.Unlock()
}

// maintainerFor returns the maintainer registered for the reader's store, or
// nil.
func maintainerFor(d db.Reader) Maintainer {
	maintainers.RLock()
	m := maintainers.byID[d.ID()]
	maintainers.RUnlock()
	return m
}

// maintainedResult consults the registered maintainer for Q(D). Hit/miss
// metrics fire only when a maintainer is actually registered for the store,
// so the counters measure maintained-mode coverage, not unrelated traffic.
func maintainedResult(d db.Reader, q *cq.Query) ([]db.Tuple, bool) {
	m := maintainerFor(d)
	if m == nil {
		return nil, false
	}
	out, ok := m.MaintainedResult(d, q)
	countMaintained(ok)
	return out, ok
}

func maintainedAnswerHolds(d db.Reader, q *cq.Query, t db.Tuple) (bool, bool) {
	m := maintainerFor(d)
	if m == nil {
		return false, false
	}
	v, ok := m.MaintainedAnswerHolds(d, q, t)
	countMaintained(ok)
	return v, ok
}

func maintainedHolds(d db.Reader, q *cq.Query, seed Assignment) (bool, bool) {
	m := maintainerFor(d)
	if m == nil {
		return false, false
	}
	v, ok := m.MaintainedHolds(d, q, seed)
	countMaintained(ok)
	return v, ok
}

func countMaintained(hit bool) {
	if hit {
		rec().Inc(MetricMaintainedHits)
	} else {
		rec().Inc(MetricMaintainedMisses)
	}
}
