// Package enumest estimates the completeness of a crowd-enumerated result
// set. The paper's main loop (§6.1) needs to know when to stop posing
// COMPL(Q(D)) questions; it cites the crowdsourced-enumeration work of
// Trushkowsky et al. and uses its statistical machinery as a black box. This
// package reimplements that black box: a Chao92 species-richness estimator
// with coefficient-of-variation correction over the stream of crowd answers,
// plus a consecutive-null stopping rule for the degenerate cases the
// estimator cannot see (e.g. an empty true result).
package enumest

import "math"

// Estimator tracks crowd enumeration answers and estimates the total number
// of distinct answers (the "species richness" of the result set).
type Estimator struct {
	counts map[string]int // answer id -> times observed
	n      int            // total non-null observations
	nulls  int            // consecutive trailing "no more answers" replies
}

// New creates an empty estimator.
func New() *Estimator {
	return &Estimator{counts: make(map[string]int)}
}

// Observe records one crowd answer (an id canonicalizing the answer tuple).
func (e *Estimator) Observe(id string) {
	e.counts[id]++
	e.n++
	e.nulls = 0
}

// ObserveNull records a crowd reply of "the result is complete" (a null
// answer to COMPL(Q(D))). Consecutive nulls are a direct completeness signal.
func (e *Estimator) ObserveNull() { e.nulls++ }

// ConsecutiveNulls returns the current run of trailing null replies.
func (e *Estimator) ConsecutiveNulls() int { return e.nulls }

// Coverage returns the Good–Turing sample coverage estimate Ĉ = 1 − f1/n,
// where f1 is the number of answers observed exactly once. With no samples it
// returns 0.
func (e *Estimator) Coverage() float64 {
	if e.n == 0 {
		return 0
	}
	f1 := 0
	for _, c := range e.counts {
		if c == 1 {
			f1++
		}
	}
	return 1 - float64(f1)/float64(e.n)
}

// Chao92 returns the Chao92 estimate of the total number of distinct answers:
//
//	N̂ = c/Ĉ + n(1−Ĉ)/Ĉ · γ²
//
// where γ² is the squared coefficient of variation of the observation counts
// (clamped at 0). When coverage is 0 (every answer seen exactly once) the
// estimate is +Inf: the sample says nothing about the tail.
func (e *Estimator) Chao92() float64 {
	c := float64(len(e.counts))
	n := float64(e.n)
	if e.n == 0 {
		return 0
	}
	cov := e.Coverage()
	if cov <= 0 {
		return math.Inf(1)
	}
	base := c / cov
	// γ²: CV correction using the frequency-of-frequency statistics.
	if e.n > 1 {
		var sum float64
		for _, k := range e.counts {
			sum += float64(k * (k - 1))
		}
		gamma2 := base*sum/(n*(n-1)) - 1
		if gamma2 < 0 {
			gamma2 = 0
		}
		return base + n*(1-cov)/cov*gamma2
	}
	return base
}

// EstimatedRemaining returns N̂ − c: the estimated number of distinct answers
// not yet observed. It is +Inf when the estimator has zero coverage.
func (e *Estimator) EstimatedRemaining() float64 {
	if e.n == 0 {
		return math.Inf(1)
	}
	return e.Chao92() - float64(len(e.counts))
}

// Complete reports whether the result is complete with high probability:
// either the Chao92 estimate says fewer than half an answer remains (and at
// least minSamples answers support the estimate), or minNulls consecutive
// crowd members replied that nothing is missing.
func (e *Estimator) Complete(minSamples, minNulls int) bool {
	if minNulls > 0 && e.nulls >= minNulls {
		return true
	}
	if e.n >= minSamples && e.EstimatedRemaining() < 0.5 {
		return true
	}
	return false
}
