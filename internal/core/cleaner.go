// Package core implements QOCO's cleaning algorithms: CrowdRemoveWrongAnswer
// (Algorithm 1, §4), CrowdAddMissingAnswer (Algorithm 2, §5), and the main
// iterative cleaner (Algorithm 3, §6), one round loop for CQ≠ queries and
// their unions. A Cleaner owns a dirty database and an oracle crowd and
// drives question-answer-edit rounds until the query result over the database
// matches the result over the (unknown) ground truth. It makes one oracle
// call at a time, and a round's TRUE(Q, t)? questions are one call per
// disjunct, which a batching oracle such as the server's question queue
// poses together (§6.2). Several experts answer through one oracle, such as
// crowd.Panel or the server's question queue.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/split"
	"repro/internal/view"
)

// Metric names the cleaner records under when Config.Obs is set.
const (
	// MetricEditsInsert / MetricEditsDelete count edits applied to D.
	MetricEditsInsert = "clean.edits.insert"
	MetricEditsDelete = "clean.edits.delete"
	// MetricIterations counts outer Algorithm 3 rounds across all runs.
	MetricIterations = "clean.iterations"
	// MetricWitnessSets is the distribution of witness-set counts per wrong
	// answer handled by Algorithm 1.
	MetricWitnessSets = "clean.witness_sets"
	// Phase latency histograms, in seconds: answer verification (Algorithm 3
	// lines 2-4), wrong-answer removal (Algorithm 1), missing-answer insertion
	// (Algorithm 2 plus the §6.1 enumeration loop), and whole runs.
	MetricVerifySeconds = "clean.phase.verify.seconds"
	MetricDeleteSeconds = "clean.phase.delete.seconds"
	MetricInsertSeconds = "clean.phase.insert.seconds"
	MetricCleanSeconds  = "clean.total.seconds"
)

// DeletionPolicy selects how Algorithm 1 picks the next witness tuple to
// verify (§7.2's deletion baselines).
type DeletionPolicy int

const (
	// PolicyQOCO is the full Algorithm 1: greedy most-frequent choice plus
	// the singleton rule that detects unique minimal hitting sets (Thm 4.5)
	// and stops asking questions once one exists.
	PolicyQOCO DeletionPolicy = iota
	// PolicyQOCOMinus is the QOCO− baseline: greedy most-frequent choice but
	// no unique-hitting-set detection; every deleted tuple is verified.
	PolicyQOCOMinus
	// PolicyRandom is the Random baseline: verifies uniformly random witness
	// tuples until every witness is destroyed.
	PolicyRandom
	// PolicyResponsibility is the §4 alternative heuristic "tuples with high
	// causality/responsibility": it asks first about the tuple with the
	// highest responsibility for the wrong answer (1/(1+|Γ|) for a minimum
	// contingency set Γ — approximated greedily), falling back to frequency
	// on ties. The singleton rule still applies.
	PolicyResponsibility
	// PolicyTrust is the §4 alternative heuristic "tuples which are least
	// trustworthy (assuming that they have trust scores)": it asks first
	// about the candidate with the lowest Config.TrustScores entry
	// (default 0.5), breaking ties by frequency. The singleton rule still
	// applies.
	PolicyTrust
	// PolicyInfluence is the §4 alternative heuristic "asking the crowd first
	// about influential tuples" (the paper's [40]): candidates are ranked by
	// their exact influence on the answer's Boolean provenance — the
	// probability the answer flips with the tuple — under per-tuple
	// probabilities taken from Config.TrustScores (0.5 when absent). The
	// singleton rule still applies.
	PolicyInfluence
)

// String returns the paper's name for the policy.
func (p DeletionPolicy) String() string {
	switch p {
	case PolicyQOCO:
		return "QOCO"
	case PolicyQOCOMinus:
		return "QOCO-"
	case PolicyRandom:
		return "Random"
	case PolicyResponsibility:
		return "Responsibility"
	case PolicyTrust:
		return "Trust"
	case PolicyInfluence:
		return "Influence"
	default:
		return fmt.Sprintf("DeletionPolicy(%d)", int(p))
	}
}

// usesSingletonRule reports whether the policy applies the unique-minimal-
// hitting-set shortcut of Theorem 4.5 (all policies except the baselines
// QOCO− and Random, which exist to measure its value).
func (p DeletionPolicy) usesSingletonRule() bool {
	switch p {
	case PolicyQOCO, PolicyResponsibility, PolicyTrust, PolicyInfluence:
		return true
	default:
		return false
	}
}

// ErrCannotComplete is returned by AddMissingAnswer when the crowd cannot
// produce a witness for the requested answer — with a perfect oracle this
// means the tuple is not an answer over the ground truth.
var ErrCannotComplete = errors.New("core: crowd cannot complete a witness for the answer")

// ErrNoConvergence is returned by Clean when the iteration guard trips before
// the result stabilizes (possible only with error-prone crowds).
var ErrNoConvergence = errors.New("core: cleaning did not converge within the iteration budget")

// Config tunes a Cleaner. The zero value is not usable; New applies defaults.
type Config struct {
	// Deletion selects the Algorithm 1 variant. Default PolicyQOCO.
	Deletion DeletionPolicy
	// Split is the Algorithm 2 split strategy. Default split.Provenance.
	Split split.Strategy
	// RNG drives random tie-breaks and the Random policies. Default seed 1.
	RNG *rand.Rand
	// MaxIterations bounds the outer loop of Algorithm 3. Default 50.
	MaxIterations int
	// Deprecated: ignored; evaluation is serial.
	EvalWorkers int
	// MinNulls configures the enumeration stopping rule for COMPL(Q(D))
	// questions (§6.1, the Chao92 black box): stop once the estimator believes
	// the result complete, or after MinNulls consecutive "nothing missing"
	// replies. Default 1.
	MinNulls int
	// Incremental enables maintained (counting-IVM) evaluation for Clean and
	// CleanUnion: the run materializes the query (and, transiently, each
	// embedded Q|t) as counting views — answers with support counts — in a
	// view.Engine registered with the evaluator, and every edit the cleaner
	// applies propagates as a delta through the views instead of forcing
	// cold re-evaluation of Result, AnswerHolds and Holds. Witnesses are not
	// maintained: Algorithm 1 enumerates them once per wrong answer. Output
	// is byte-identical to non-incremental runs (the differential harness
	// enforces it); only the evaluation cost changes.
	// The zero Config leaves it off, but note that the qoco CLI and
	// qocoserver wire it to their -ivm flag, which defaults to on — operators
	// assessing the maintained code path's blast radius should assume it is
	// active unless -ivm=false was passed. See docs/EVAL.md.
	Incremental bool
	// TrustScores maps fact keys (db.Fact.Key()) to trust in [0, 1], used by
	// PolicyTrust: less trustworthy tuples are verified first. Facts without
	// an entry default to 0.5.
	TrustScores map[string]float64
	// Obs, when non-nil, receives live metrics from the run: question counts
	// by kind (via the crowd.Counting wrapper), edits applied, iterations,
	// phase latencies and witness-set sizes. Nil disables recording at zero
	// cost.
	Obs *obs.Recorder
}

func (c *Config) applyDefaults() {
	if c.Split == nil {
		c.Split = split.Provenance{}
	}
	if c.RNG == nil {
		c.RNG = rand.New(rand.NewSource(1))
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 50
	}
	if c.MinNulls == 0 {
		c.MinNulls = 1
	}
}

// Timings breaks a run's wall-clock time into the phases of Algorithm 3:
// verifying answers, removing wrong answers (Algorithm 1), and inserting
// missing answers (Algorithm 2 with the §6.1 enumeration loop). Total is the
// whole run, including the incremental view build before the first round
// and result evaluation between phases.
type Timings struct {
	Verify time.Duration `json:"verify"`
	Delete time.Duration `json:"delete"`
	Insert time.Duration `json:"insert"`
	Total  time.Duration `json:"total"`
}

// Degrader is implemented by oracles that may substitute the edit-free
// default for a real crowd answer — the server's question queue when a
// question exhausts its deadline re-asks. DegradedAnswers returns the
// substitutions so far; the cleaner samples it around each run to surface
// Report.Degraded.
type Degrader interface {
	DegradedAnswers() int
}

// degradedCount reads an oracle's degraded-answer count, 0 for oracles that
// cannot degrade.
func degradedCount(o crowd.Oracle) int {
	if d, ok := o.(Degrader); ok {
		return d.DegradedAnswers()
	}
	return 0
}

// Report summarizes one cleaning run.
type Report struct {
	// Edits applied to the database, in order.
	Edits []db.Edit
	// Deletions and Insertions are the counts of applied edits by kind.
	Deletions, Insertions int
	// WrongAnswers and MissingAnswers are the output errors encountered.
	WrongAnswers, MissingAnswers int
	// Iterations is the number of outer Algorithm 3 rounds.
	Iterations int
	// Crowd is the interaction accounting for the whole run.
	Crowd crowd.Stats
	// Timings is the phase breakdown of the run's wall-clock time.
	Timings Timings
	// Degraded reports that at least one crowd question was answered with the
	// edit-free default instead of a real answer (oracle timeout with an
	// exhausted fallback chain, or a server question past its deadline and
	// re-ask budget). The run terminated, but Q(D) = Q(DG) is not guaranteed;
	// DegradedQuestions counts the substituted answers.
	Degraded          bool
	DegradedQuestions int
}

// Progress is a point-in-time view of a run for live monitoring: which outer
// Algorithm 3 round is executing and the crowd cost accumulated so far.
type Progress struct {
	Iteration int         `json:"iteration"`
	Crowd     crowd.Stats `json:"crowd"`
}

// Cleaner drives QOCO over one database instance.
//
// Every crowd question of a run is asked from the goroutine running it, one
// oracle call at a time; only a round's answer verifications share a call
// (verifyAnswers). verifyFact and complete rely on this: they ask outside
// c.mu, and no second ask of the same question can start while one waits on
// the crowd.
type Cleaner struct {
	cfg    Config
	d      db.Store
	oracle *crowd.Counting
	raw    crowd.Oracle // the unwrapped oracle, for Degrader sampling

	mu         sync.Mutex // guards the caches and iteration (Progress reads it from other goroutines)
	knownTrue  map[string]bool
	knownFalse map[string]bool
	unsat      map[string]bool // partial-assignment keys known non-satisfiable
	iteration  int             // current Algorithm 3 round, for Progress

	// engine is the maintained-evaluation engine of the current Incremental
	// run; nil outside Clean/CleanUnion or when Incremental is off. It is
	// only touched from the cleaning goroutine (edits are serialized), so it
	// needs no lock of its own.
	engine *view.Engine
}

// New builds a Cleaner over the store with the given oracle and config.
// The store is mutated in place by the cleaning methods. Any db.Store
// backend works; callers passing the historical *db.Database keep compiling
// unchanged.
func New(d db.Store, oracle crowd.Oracle, cfg Config) *Cleaner {
	cfg.applyDefaults()
	counting := crowd.NewCounting(oracle)
	counting.Obs = cfg.Obs
	return &Cleaner{
		cfg:        cfg,
		d:          d,
		oracle:     counting,
		raw:        oracle,
		knownTrue:  make(map[string]bool),
		knownFalse: make(map[string]bool),
		unsat:      make(map[string]bool),
	}
}

// Stats returns the crowd interaction statistics accumulated so far.
func (c *Cleaner) Stats() crowd.Stats { return c.oracle.Snapshot() }

// Progress returns the cleaner's current iteration and crowd cost. Safe to
// call concurrently with a running Clean; the server uses it to report
// incremental job progress.
func (c *Cleaner) Progress() Progress {
	c.mu.Lock()
	iter := c.iteration
	c.mu.Unlock()
	return Progress{Iteration: iter, Crowd: c.oracle.Snapshot()}
}

// setIteration records the current Algorithm 3 round and bumps the iteration
// counter metric.
func (c *Cleaner) setIteration(iter int) {
	c.mu.Lock()
	c.iteration = iter
	c.mu.Unlock()
	c.cfg.Obs.Inc(MetricIterations)
}

// phase starts timing one algorithm phase; the returned func stops the clock,
// accumulating into the Timings field and the recorder histogram.
func (c *Cleaner) phase(metric string, acc *time.Duration) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		*acc += d
		c.cfg.Obs.ObserveDuration(metric, d)
	}
}

// verifyFact answers TRUE(R(ā))? consulting the known-answer caches first, so
// the same question is never posed to the crowd twice (§3.2 assumes questions
// are never repeated). The crowd call happens outside c.mu: a crowd answer can
// be minutes away, and holding the lock would freeze Progress (and with it the
// server's job-status endpoint) for the duration.
func (c *Cleaner) verifyFact(ctx context.Context, f db.Fact) bool {
	k := f.Key()
	c.mu.Lock()
	ans, known := c.knownTrue[k], c.knownTrue[k] || c.knownFalse[k]
	c.mu.Unlock()
	if known {
		return ans
	}
	ans = c.oracle.VerifyFact(ctx, f)
	if ctx.Err() != nil {
		// A cancelled question yields the edit-free default; don't let it
		// poison the never-repeat caches.
		return ans
	}
	c.mu.Lock()
	if ans {
		c.knownTrue[k] = true
	} else {
		c.knownFalse[k] = true
	}
	c.mu.Unlock()
	return ans
}

// markTrueFact records a fact as true without asking (e.g. ground atoms of
// Q|t, or facts of a crowd-completed witness).
func (c *Cleaner) markTrueFact(f db.Fact) {
	c.mu.Lock()
	c.knownTrue[f.Key()] = true
	delete(c.knownFalse, f.Key())
	c.mu.Unlock()
}

// apply applies an edit to the database and appends it to the report.
func (c *Cleaner) apply(r *Report, e db.Edit) error {
	changed, err := c.d.Apply(e)
	if err != nil {
		return err
	}
	if !changed {
		return nil
	}
	r.Edits = append(r.Edits, e)
	if e.Op == db.Insert {
		r.Insertions++
		c.cfg.Obs.Inc(MetricEditsInsert)
	} else {
		r.Deletions++
		c.cfg.Obs.Inc(MetricEditsDelete)
	}
	// The engine must see the edit immediately after the store (its delta
	// base is the pre-edit generation). If anything else edits the store
	// between engine.Apply calls, the next one sees the generation mismatch
	// and degrades to a stale engine (cold fallback until Sync) instead of
	// serving deltas computed off the wrong base.
	if c.engine != nil {
		c.engine.Apply(e)
	}
	return nil
}

// beginMaintained starts maintained (IVM) evaluation for a run: it builds the
// engine, materializes the given queries as counting views, and
// registers the engine with the evaluator. A no-op unless Config.Incremental
// is set; a query that fails validation disables maintained mode for the run
// (evaluation of that query will surface the problem on its own terms).
func (c *Cleaner) beginMaintained(qs ...*cq.Query) {
	if !c.cfg.Incremental {
		return
	}
	engine := view.NewEngine(c.d)
	for _, q := range qs {
		if err := engine.Ensure(q); err != nil {
			return
		}
	}
	c.engine = engine
	eval.SetMaintainer(c.d.ID(), c.engine)
}

// finishEval releases the run's evaluation state: the maintained engine (if
// any) is unregistered, and the store's evaluation-cache sections are dropped
// so a finished run never leaks cache memory into the next job (the sections
// are generation-stamped and thus useless to anyone else anyway).
func (c *Cleaner) finishEval() {
	if c.engine != nil {
		eval.ClearMaintainer(c.d.ID(), c.engine)
		c.engine = nil
	}
	eval.InvalidateDB(c.d.ID())
}
