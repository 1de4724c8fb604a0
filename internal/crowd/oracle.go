// Package crowd models the paper's oracle crowds (§3.2, §6.2): the four
// question types QOCO poses, a perfect oracle backed by the ground truth
// database, imperfect experts with a configurable error rate, a majority-vote
// panel that aggregates several imperfect experts (asking until two agree and
// re-verifying open answers with closed questions), an interactive oracle
// that lets a human answer over an io stream, and question accounting
// matching the paper's cost model (closed answers count 1; open answers count
// the number of variables the expert filled).
package crowd

import (
	"context"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
)

// Oracle is a crowd that can answer QOCO's four question types:
//
//	TRUE(R(ā))?   — VerifyFact: is the fact true in DG? (§3.2)
//	TRUE(Q, t)?   — VerifyAnswer: is t ∈ Q(DG)? (§6.1)
//	COMPL(α, Q)   — Complete: extend a satisfiable partial assignment to a
//	                valid total assignment w.r.t. DG, if possible (§5)
//	COMPL(Q(D))   — CompleteResult: name an answer of Q(DG) missing from the
//	                given result, if any (§6.1)
//
// Every method takes a context: a crowd answer can be minutes away (a human
// behind an HTTP queue), and a cancelled cleaning job must not stay blocked
// on it. Implementations return promptly once ctx is done, answering with an
// edit-free default (booleans read as their no-edit value, completions as
// "nothing to complete"); callers that care about cancellation check ctx.Err
// after the call, as the cleaner does.
type Oracle interface {
	// VerifyFact answers TRUE(R(ā))?.
	VerifyFact(ctx context.Context, f db.Fact) bool
	// VerifyAnswer answers TRUE(Q, t)?.
	VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) bool
	// Complete answers COMPL(α, Q): ok is false when α is not satisfiable
	// w.r.t. DG (or the oracle cannot complete it).
	Complete(ctx context.Context, q *cq.Query, partial eval.Assignment) (eval.Assignment, bool)
	// CompleteResult answers COMPL(Q(D)): a tuple in Q(DG) missing from
	// current, or ok = false if the oracle believes the result is complete.
	CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool)
}

// AnswerBatcher is implemented by oracles that can pose several TRUE(Q, t)?
// questions together, as the §6.2 deployment poses a round's independent
// answer verifications to the crowd at once. VerifyAnswers returns one
// answer per tuple, in the order given; once ctx is done the unanswered
// ones read as the edit-free default true. The server's question queue
// implements it; Counting.VerifyAnswers falls back to one VerifyAnswer at a
// time for oracles that do not.
type AnswerBatcher interface {
	VerifyAnswers(ctx context.Context, q *cq.Query, ts []db.Tuple) []bool
}

// Stats counts crowd interactions using the paper's cost model (§7): each
// answer to a closed (boolean) question adds 1; each answer to an open
// question adds the number of unique variables the expert filled in.
type Stats struct {
	VerifyFactQs     int // closed TRUE(R(ā))? answers
	VerifyAnswerQs   int // closed TRUE(Q, t)? answers
	CompleteQs       int // open COMPL(α, Q) tasks answered
	CompleteResultQs int // open COMPL(Q(D)) tasks answered
	VariablesFilled  int // unique variables filled across open answers
}

// Closed returns the number of closed-question answers.
func (s Stats) Closed() int { return s.VerifyFactQs + s.VerifyAnswerQs }

// Total returns the total crowd cost: closed answers plus filled variables.
func (s Stats) Total() int { return s.Closed() + s.VariablesFilled }

// Metric names Counting records under, by question kind. MetricQuestionSeconds
// takes one wall-clock sample per oracle call: a batch of verifications is
// one sample, so the histogram's sum is the time the cleaner waited on the
// crowd, while the counters count questions.
const (
	MetricVerifyFact      = "crowd.questions.verify_fact"
	MetricVerifyAnswer    = "crowd.questions.verify_answer"
	MetricComplete        = "crowd.questions.complete"
	MetricCompleteResult  = "crowd.questions.complete_result"
	MetricVariablesFilled = "crowd.variables_filled"
	MetricQuestionSeconds = "crowd.question.seconds"
)

// Counting wraps an Oracle and records interaction statistics. The wrapped
// oracle sees exactly the same questions. Snapshot may be called while
// another goroutine asks (the server reads a running job's progress), and
// Counting is safe for concurrent asks when the wrapped oracle is. When Obs
// is set, every question also lands in the recorder: a counter per question
// kind, the filled-variable total, and an answer latency histogram — the
// live view of the paper's §7 cost metric.
type Counting struct {
	Oracle Oracle
	Obs    *obs.Recorder

	mu    sync.Mutex
	stats Stats
}

// NewCounting wraps an oracle with fresh counters.
func NewCounting(o Oracle) *Counting { return &Counting{Oracle: o} }

// DegradedAnswers forwards the wrapped oracle's degraded-answer count, so
// wrapping a degradation-aware oracle (the server's question queue) in
// Counting does not hide it from core.Degrader detection.
// It reports 0 for oracles that cannot degrade.
func (c *Counting) DegradedAnswers() int {
	if d, ok := c.Oracle.(interface{ DegradedAnswers() int }); ok {
		return d.DegradedAnswers()
	}
	return 0
}

// Snapshot returns a copy of the accumulated statistics.
func (c *Counting) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// VerifyFact implements Oracle.
func (c *Counting) VerifyFact(ctx context.Context, f db.Fact) bool {
	c.mu.Lock()
	c.stats.VerifyFactQs++
	c.mu.Unlock()
	c.Obs.Inc(MetricVerifyFact)
	start := time.Now()
	ans := c.Oracle.VerifyFact(ctx, f)
	c.Obs.ObserveDuration(MetricQuestionSeconds, time.Since(start))
	return ans
}

// VerifyAnswer implements Oracle.
func (c *Counting) VerifyAnswer(ctx context.Context, q *cq.Query, t db.Tuple) bool {
	c.mu.Lock()
	c.stats.VerifyAnswerQs++
	c.mu.Unlock()
	c.Obs.Inc(MetricVerifyAnswer)
	start := time.Now()
	ans := c.Oracle.VerifyAnswer(ctx, q, t)
	c.Obs.ObserveDuration(MetricQuestionSeconds, time.Since(start))
	return ans
}

// VerifyAnswers answers TRUE(Q, t)? for every t in ts, in order. An
// AnswerBatcher oracle gets the whole batch in one call, and every question
// in it counts as asked. Any other oracle is asked one question at a time,
// with ctx checked before each ask; the questions a cancelled batch never
// asked are not counted and read as the edit-free default true.
func (c *Counting) VerifyAnswers(ctx context.Context, q *cq.Query, ts []db.Tuple) []bool {
	b, ok := c.Oracle.(AnswerBatcher)
	if !ok {
		out := make([]bool, len(ts))
		for i, t := range ts {
			out[i] = ctx.Err() != nil || c.VerifyAnswer(ctx, q, t)
		}
		return out
	}
	c.mu.Lock()
	c.stats.VerifyAnswerQs += len(ts)
	c.mu.Unlock()
	c.Obs.Add(MetricVerifyAnswer, int64(len(ts)))
	start := time.Now()
	out := b.VerifyAnswers(ctx, q, ts)
	c.Obs.ObserveDuration(MetricQuestionSeconds, time.Since(start))
	return out
}

// Complete implements Oracle. The variables newly bound by the oracle
// (present in the reply but not in the question) are added to
// Stats.VariablesFilled.
func (c *Counting) Complete(ctx context.Context, q *cq.Query, partial eval.Assignment) (eval.Assignment, bool) {
	start := time.Now()
	full, ok := c.Oracle.Complete(ctx, q, partial)
	c.Obs.ObserveDuration(MetricQuestionSeconds, time.Since(start))
	c.mu.Lock()
	c.stats.CompleteQs++
	filled := 0
	if ok {
		for v := range full {
			if _, had := partial[v]; !had {
				filled++
			}
		}
		c.stats.VariablesFilled += filled
	}
	c.mu.Unlock()
	c.Obs.Inc(MetricComplete)
	c.Obs.Add(MetricVariablesFilled, int64(filled))
	return full, ok
}

// CompleteResult implements Oracle. A returned missing answer counts as
// filling one variable per answer-tuple component (the expert produced that
// many values).
func (c *Counting) CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	start := time.Now()
	t, ok := c.Oracle.CompleteResult(ctx, q, current)
	c.Obs.ObserveDuration(MetricQuestionSeconds, time.Since(start))
	c.mu.Lock()
	c.stats.CompleteResultQs++
	filled := 0
	if ok {
		filled = len(t)
		c.stats.VariablesFilled += filled
	}
	c.mu.Unlock()
	c.Obs.Inc(MetricCompleteResult)
	c.Obs.Add(MetricVariablesFilled, int64(filled))
	return t, ok
}
