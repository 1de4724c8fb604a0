// Package server exposes QOCO over HTTP, mirroring the prototype
// architecture of the paper's Figure 5: a QOCO Manager drives the cleaning
// algorithms while crowd members answer questions through a web interface.
// Questions are queued as JSON resources; each Oracle call blocks until some
// crowd member posts an answer, and any member may answer any pending
// question (the §6.2 deployment with several experts).
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/wal"
)

// QuestionKind enumerates the paper's four crowd question types.
type QuestionKind string

// Question kinds.
const (
	KindVerifyFact     QuestionKind = "verify-fact"     // TRUE(R(ā))?
	KindVerifyAnswer   QuestionKind = "verify-answer"   // TRUE(Q, t)?
	KindComplete       QuestionKind = "complete"        // COMPL(α, Q)
	KindCompleteResult QuestionKind = "complete-result" // COMPL(Q(D))
)

// Metric names the queue records under when Obs is set.
const (
	// MetricPendingQuestions is the current number of unanswered questions.
	MetricPendingQuestions = "server.questions.pending"
	// MetricQuestionsAsked / MetricQuestionsAnswered count queue traffic.
	MetricQuestionsAsked    = "server.questions.asked"
	MetricQuestionsAnswered = "server.questions.answered"
	// MetricQuestionsReasked counts deadline expiries that re-queued a
	// question; MetricQuestionsExpired counts questions that exhausted their
	// re-ask budget and were answered with the edit-free default.
	MetricQuestionsReasked = "server.questions.reasked"
	MetricQuestionsExpired = "server.questions.expired"
	// MetricQuestionsReplayed counts questions answered from a recovery
	// journal instead of the live crowd.
	MetricQuestionsReplayed = "server.questions.replayed"
)

// Question is one pending crowd task, serialized to the web UI.
type Question struct {
	ID   int          `json:"id"`
	Kind QuestionKind `json:"kind"`
	Text string       `json:"text"` // human-readable rendering
	// Job is the cleaning job that asked, 0 for questions asked outside a job.
	Job int `json:"job,omitempty"`
	// Attempt is the 1-based ask count: 2 or more means the question blew a
	// deadline and was re-queued. Deadline, when the queue enforces one, is
	// the instant the current attempt expires.
	Attempt  int        `json:"attempt,omitempty"`
	Deadline *time.Time `json:"deadline,omitempty"`

	// Kind-specific payloads.
	Fact    []string          `json:"fact,omitempty"`    // relation, v1, ..., vk
	Query   string            `json:"query,omitempty"`   // cq text
	Tuple   []string          `json:"tuple,omitempty"`   // answer tuple
	Partial map[string]string `json:"partial,omitempty"` // bound variables
	Unbound []string          `json:"unbound,omitempty"` // variables to fill
	Current [][]string        `json:"current,omitempty"` // current result rows

	reply chan<- reply // the asking batch's reply channel
	slot  int          // the question's index in its batch
	arity int          // complete-result: the head's arity, which a proposed tuple must match
}

// reply is one resolved question of a batch: its index in the batch and the
// answer that resolved it.
type reply struct {
	slot int
	a    Answer
}

// resolve hands a question's answer to its asker. Callers have removed the
// question from pending under the queue lock first, so a question resolves
// at most once and the batch's buffered channel never blocks.
func (qu *Question) resolve(a Answer) { qu.reply <- reply{qu.slot, a} }

// Answer is a crowd member's reply to a question.
type Answer struct {
	// Bool answers verify-fact / verify-answer questions.
	Bool *bool `json:"bool,omitempty"`
	// None declares a completion impossible / the result complete.
	None bool `json:"none,omitempty"`
	// Bindings answers complete questions: values for the unbound variables.
	Bindings map[string]string `json:"bindings,omitempty"`
	// Tuple answers complete-result questions: a missing answer.
	Tuple []string `json:"tuple,omitempty"`
	// Degraded marks an edit-free default served because the question
	// exhausted its deadline re-asks — recorded in recovery journals so a
	// restarted job reproduces the same degraded run.
	Degraded bool `json:"degraded,omitempty"`

	// released marks the internal edit-free answer used to unblock askers on
	// shutdown and job cancellation. Released answers are never journaled:
	// from the journal's point of view the question was never answered.
	released bool
}

// Journal records resolved questions for crash recovery. Implementations
// must be safe for concurrent use and must not keep the slice. The queue
// calls RecordAnswers outside its own lock with a group of one job's live or
// degraded answers (never released answers, nor answers to a cancelled
// asker), each under its question's content key, in the order they arrived.
// A group holds the answers that arrived while the previous group was being
// journaled, so one append can cover many answers of a batch.
type Journal interface {
	RecordAnswers(job int, answers []wal.KeyedAnswer)
}

// QuestionKey renders a question's content — kind and payload, not identity
// (ID, job, attempt) — as a canonical string. Identical questions asked by a
// deterministic re-run of the same job produce identical keys, which is what
// lets a recovery journal match recorded answers to re-asked questions.
//
// The encoding is length-prefixed and injective: two questions share a key
// exactly when their kind and payloads are equal (nil and empty collections
// are deliberately identified — they ask the same crowd question). It uses no
// encoding/json and no map iteration, so it is byte-stable across Go versions
// and distinguishes payloads json.Marshal would conflate by replacing invalid
// UTF-8 with U+FFFD. parseQuestionKey inverts it.
func QuestionKey(qu *Question) string {
	var b strings.Builder
	encStr := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	encList := func(xs []string) {
		b.WriteString(strconv.Itoa(len(xs)))
		b.WriteByte(';')
		for _, x := range xs {
			encStr(x)
		}
	}
	b.WriteString(questionKeyVersion)
	encStr(string(qu.Kind))
	encList(qu.Fact)
	encStr(qu.Query)
	encList(qu.Tuple)
	keys := make([]string, 0, len(qu.Partial))
	for k := range qu.Partial {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString(strconv.Itoa(len(keys)))
	b.WriteByte(';')
	for _, k := range keys {
		encStr(k)
		encStr(qu.Partial[k])
	}
	encList(qu.Unbound)
	b.WriteString(strconv.Itoa(len(qu.Current)))
	b.WriteByte(';')
	for _, row := range qu.Current {
		encList(row)
	}
	return b.String()
}

// questionKeyVersion prefixes every key so a journal written under a
// different encoding can never be mistaken for the current one.
const questionKeyVersion = "qk1\x00"

// parseQuestionKey decodes a QuestionKey back into the payload fields it
// encodes. It is the harness-facing inverse used by FuzzQuestionKeyRoundTrip
// to prove the encoding injective; empty collections decode as nil.
func parseQuestionKey(key string) (*Question, error) {
	rest, ok := strings.CutPrefix(key, questionKeyVersion)
	if !ok {
		return nil, fmt.Errorf("server: question key lacks %q version prefix", questionKeyVersion[:3])
	}
	p := &keyParser{rest: rest}
	qu := &Question{}
	qu.Kind = QuestionKind(p.str())
	qu.Fact = p.list()
	qu.Query = p.str()
	qu.Tuple = p.list()
	if n := p.count(); n > 0 {
		qu.Partial = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := p.str()
			if p.err == nil && i > 0 && k <= prev {
				p.fail("partial keys not strictly sorted")
			}
			prev = k
			qu.Partial[k] = p.str()
		}
	}
	qu.Unbound = p.list()
	if n := p.count(); n > 0 {
		qu.Current = make([][]string, n)
		for i := range qu.Current {
			qu.Current[i] = p.list()
			if qu.Current[i] == nil {
				qu.Current[i] = []string{}
			}
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.rest != "" {
		return nil, fmt.Errorf("server: question key has %d trailing bytes", len(p.rest))
	}
	return qu, nil
}

// keyParser consumes the length-prefixed question-key grammar. The first
// malformed token latches err and every later read returns zero values.
type keyParser struct {
	rest string
	err  error
}

func (p *keyParser) fail(msg string) {
	if p.err == nil {
		p.err = fmt.Errorf("server: malformed question key: %s", msg)
	}
}

// num reads a decimal count up to the delimiter sep (':' for strings, ';'
// for collections).
func (p *keyParser) num(sep byte) int {
	if p.err != nil {
		return 0
	}
	i := strings.IndexByte(p.rest, sep)
	if i < 0 {
		p.fail("missing length delimiter")
		return 0
	}
	n, err := strconv.Atoi(p.rest[:i])
	if err != nil || n < 0 || p.rest[:i] != strconv.Itoa(n) {
		p.fail("bad length")
		return 0
	}
	p.rest = p.rest[i+1:]
	return n
}

func (p *keyParser) str() string {
	n := p.num(':')
	if p.err != nil {
		return ""
	}
	if n > len(p.rest) {
		p.fail("string length past end of key")
		return ""
	}
	s := p.rest[:n]
	p.rest = p.rest[n:]
	return s
}

func (p *keyParser) count() int { return p.num(';') }

func (p *keyParser) list() []string {
	n := p.count()
	if p.err != nil || n == 0 {
		return nil
	}
	xs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		xs = append(xs, p.str())
	}
	if p.err != nil {
		return nil
	}
	return xs
}

// jobCtxKey carries the asking job's ID through the context so questions can
// be attributed and cancelled per job.
type jobCtxKey struct{}

// withJob tags ctx with a job ID.
func withJob(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, jobCtxKey{}, id)
}

// jobIDFrom returns the job ID carried by ctx, 0 if none.
func jobIDFrom(ctx context.Context) int {
	id, _ := ctx.Value(jobCtxKey{}).(int)
	return id
}

// Queue is a crowd.Oracle whose answers arrive asynchronously over HTTP. It
// is also a crowd.AnswerBatcher: a round's TRUE(Q, t)? questions are pending
// together and may be answered in any order.
//
// When a deadline is configured (SetDeadline) an unanswered question expires:
// it is re-queued with a bumped attempt count up to the re-ask budget, then
// answered with the edit-free default and counted as degraded for its job —
// a slow crowd stalls a job, but can no longer hang it forever.
type Queue struct {
	// Obs, when non-nil, receives queue metrics (pending-question gauge and
	// ask/answer/re-ask counters). Set before use.
	Obs *obs.Recorder

	mu        sync.Mutex
	nextID    int
	pending   map[int]*Question
	closed    bool
	deadline  time.Duration
	maxReasks int
	journal   Journal
	replays   map[int]map[string][]Answer // per-job recorded answers, FIFO per key
	degTotal  int

	// Resolved-question history: a bounded ring of recent outcomes, so a
	// long-lived server's memory does not grow with lifetime question count.
	history  []QuestionEvent
	histHead int
	histCap  int
}

// DefaultQuestionHistory is the resolved-question ring capacity unless
// SetHistoryLimit overrides it.
const DefaultQuestionHistory = 256

// QuestionEvent is one resolved question in the history ring.
type QuestionEvent struct {
	ID      int          `json:"id,omitempty"`
	Job     int          `json:"job,omitempty"`
	Kind    QuestionKind `json:"kind"`
	Text    string       `json:"text"`
	Attempt int          `json:"attempt,omitempty"`
	// Outcome is "answered" (a crowd member replied), "degraded" (deadline
	// re-asks exhausted, edit-free default served), "cancelled" (the asking
	// job was cancelled), or "replayed" (answered from a recovery journal).
	Outcome  string    `json:"outcome"`
	Resolved time.Time `json:"resolved"`
}

// NewQueue creates an empty question queue.
func NewQueue() *Queue {
	return &Queue{
		pending: make(map[int]*Question),
		replays: make(map[int]map[string][]Answer),
		histCap: DefaultQuestionHistory,
	}
}

// SetHistoryLimit caps the resolved-question history ring at n entries (0
// disables history). Shrinking keeps the most recent entries.
func (q *Queue) SetHistoryLimit(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	cur := q.historyLocked()
	q.histCap = n
	q.histHead = 0
	if n <= 0 {
		q.history = nil
		return
	}
	if len(cur) > n {
		cur = cur[len(cur)-n:]
	}
	q.history = append([]QuestionEvent(nil), cur...)
}

// History returns the retained resolved-question events, oldest first.
func (q *Queue) History() []QuestionEvent {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.historyLocked()
}

func (q *Queue) historyLocked() []QuestionEvent {
	out := make([]QuestionEvent, 0, len(q.history))
	out = append(out, q.history[q.histHead:]...)
	out = append(out, q.history[:q.histHead]...)
	return out
}

// recordHistoryLocked appends one resolved question to the ring. Callers
// hold q.mu.
func (q *Queue) recordHistoryLocked(qu *Question, outcome string) {
	if q.histCap <= 0 {
		return
	}
	ev := QuestionEvent{
		ID: qu.ID, Job: qu.Job, Kind: qu.Kind, Text: qu.Text,
		Attempt: qu.Attempt, Outcome: outcome, Resolved: time.Now(),
	}
	if len(q.history) < q.histCap {
		q.history = append(q.history, ev)
		return
	}
	q.history[q.histHead] = ev
	q.histHead = (q.histHead + 1) % q.histCap
}

// SetDeadline configures question expiry: each attempt of a question waits d
// for an answer; after maxReasks re-asks the question is answered with the
// edit-free default and its job degrades. d <= 0 disables expiry.
func (q *Queue) SetDeadline(d time.Duration, maxReasks int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.deadline = d
	q.maxReasks = maxReasks
}

// SetJournal installs the recovery journal that records every live answer.
func (q *Queue) SetJournal(j Journal) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.journal = j
}

// SetReplay seeds recorded answers for one job: questions whose content key
// matches are answered from the recording (FIFO per key) without reaching the
// crowd. Used by crash recovery before re-running the job.
func (q *Queue) SetReplay(jobID int, answers map[string][]Answer) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(answers) == 0 {
		delete(q.replays, jobID)
		return
	}
	q.replays[jobID] = answers
}

// ClearReplay drops any remaining recorded answers for a job (called when
// the job finishes; leftovers would be answers the re-run never re-asked).
func (q *Queue) ClearReplay(jobID int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.replays, jobID)
}

// takeReplayLocked pops the next recorded answer for (job, key), if any.
func (q *Queue) takeReplayLocked(jobID int, key string) (Answer, bool) {
	rs := q.replays[jobID]
	if len(rs) == 0 {
		return Answer{}, false
	}
	answers := rs[key]
	if len(answers) == 0 {
		return Answer{}, false
	}
	a := answers[0]
	if len(answers) == 1 {
		delete(rs, key)
		if len(rs) == 0 {
			delete(q.replays, jobID)
		}
	} else {
		rs[key] = answers[1:]
	}
	return a, true
}

// DegradedAnswers returns the total number of questions (across jobs)
// answered with the edit-free default after exhausting their deadline
// re-asks. It implements core.Degrader.
func (q *Queue) DegradedAnswers() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.degTotal
}

// Pending returns copies of the open questions: escalated questions (highest
// attempt) first, then by ID, so crowd members see expiring work on top.
func (q *Queue) Pending() []*Question {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Question, 0, len(q.pending))
	for _, qu := range q.pending {
		cp := *qu
		cp.reply = nil
		if qu.Deadline != nil {
			dl := *qu.Deadline
			cp.Deadline = &dl
		}
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attempt != out[j].Attempt {
			return out[i].Attempt > out[j].Attempt
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// PendingFor returns the IDs of the open questions asked by one job, ordered.
func (q *Queue) PendingFor(jobID int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []int
	for id, qu := range q.pending {
		if qu.Job == jobID {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ErrBadAnswer is returned by Queue.Answer for an answer it refuses, leaving
// the question pending: one that lacks the payload the question's kind reads
// (docs/API.md), sets the server-only degraded flag, or holds a reserved
// store byte.
var ErrBadAnswer = errors.New("server: bad answer")

// Answer resolves a pending question. It fails for unknown IDs (including
// already-answered questions), and with ErrBadAnswer for an answer that the
// question cannot read.
func (q *Queue) Answer(id int, a Answer) error {
	if err := a.validate(); err != nil {
		return err
	}
	q.mu.Lock()
	qu, ok := q.pending[id]
	if ok {
		if err := a.answers(qu); err != nil {
			q.mu.Unlock()
			return err
		}
		delete(q.pending, id)
		q.recordHistoryLocked(qu, "answered")
		q.Obs.SetGauge(MetricPendingQuestions, float64(len(q.pending)))
	}
	q.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no pending question %d", id)
	}
	q.Obs.Inc(MetricQuestionsAnswered)
	qu.resolve(a)
	return nil
}

// validate rejects an answer whatever its question: one carrying the
// server-only degraded flag, which the journal would replay as a degraded
// answer, or a value the stores refuse: a tuple value, or a binding's
// variable or value, holding a reserved separator byte (db.ErrReservedByte).
func (a Answer) validate() error {
	if a.Degraded {
		return fmt.Errorf("%w: degraded is set by the server only", ErrBadAnswer)
	}
	if err := db.ValidateValues(a.Tuple); err != nil {
		return fmt.Errorf("%w: tuple: %w", ErrBadAnswer, err)
	}
	for v, val := range a.Bindings {
		if err := db.ValidateValues([]string{v, val}); err != nil {
			return fmt.Errorf("%w: binding: %w", ErrBadAnswer, err)
		}
	}
	return nil
}

// answers rejects an answer that lacks the payload qu's kind reads: bool for
// verify-fact and verify-answer; none, or a non-empty binding for every
// unbound variable, for complete; none, or a tuple of the head's arity, for
// complete-result. The oracle methods would read a missing payload as an
// answer ("false", "nothing to complete") that nobody gave.
func (a Answer) answers(qu *Question) error {
	switch qu.Kind {
	case KindVerifyFact, KindVerifyAnswer:
		if a.Bool == nil {
			return fmt.Errorf("%w: a %s answer needs bool", ErrBadAnswer, qu.Kind)
		}
	case KindComplete:
		if a.None {
			return nil
		}
		if a.Bindings == nil {
			return fmt.Errorf("%w: a complete answer needs none or bindings", ErrBadAnswer)
		}
		for _, v := range qu.Unbound {
			if a.Bindings[v] == "" {
				return fmt.Errorf("%w: a complete answer needs a value for %s", ErrBadAnswer, v)
			}
		}
	case KindCompleteResult:
		if !a.None && len(a.Tuple) != qu.arity {
			return fmt.Errorf("%w: a complete-result answer needs none or a tuple of %d values", ErrBadAnswer, qu.arity)
		}
	}
	return nil
}

// closedAnswer is the shutdown/cancellation reply: it causes no database
// edits — boolean questions read "true" (nothing gets deleted or inserted on
// its account), completion questions read "nothing to complete".
func closedAnswer() Answer {
	yes := true
	return Answer{Bool: &yes, None: true, released: true}
}

// degradedAnswer is the edit-free default served when a question exhausts
// its deadline re-asks. Unlike closedAnswer it is journaled: it decided the
// job's outcome.
func degradedAnswer() Answer {
	yes := true
	return Answer{Bool: &yes, None: true, Degraded: true}
}

// Close unblocks all pending and future questions with edit-free default
// answers, letting an in-flight cleaning run terminate without corrupting
// the database when the server shuts down.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	pend := q.pending
	q.pending = make(map[int]*Question)
	q.Obs.SetGauge(MetricPendingQuestions, 0)
	q.mu.Unlock()
	for _, qu := range pend {
		qu.resolve(closedAnswer())
	}
}

// CancelJob unblocks the pending questions of one job with edit-free default
// answers, so a cancelled job's oracle calls return within one request cycle
// instead of waiting for its context check.
func (q *Queue) CancelJob(jobID int) {
	q.mu.Lock()
	var cancelled []*Question
	for id, qu := range q.pending {
		if qu.Job == jobID {
			delete(q.pending, id)
			q.recordHistoryLocked(qu, "cancelled")
			cancelled = append(cancelled, qu)
		}
	}
	q.Obs.SetGauge(MetricPendingQuestions, float64(len(q.pending)))
	q.mu.Unlock()
	for _, qu := range cancelled {
		qu.resolve(closedAnswer())
	}
}

// ask poses one question: the batch of one.
func (q *Queue) ask(ctx context.Context, qu *Question) Answer {
	return q.askAll(ctx, []*Question{qu})[0]
}

// askAll poses a batch of questions together, under one lock, and blocks
// until each is answered, expires past its re-ask budget, or ctx is
// cancelled. It returns the answers in batch order. Each question keeps its
// own deadline, attempt count and degradation. Cancellation reads as the
// edit-free default for every question still open; Close and CancelJob
// release every pending question of the batch the same way. Answers are
// taken in the order they arrive and journaled in groups under their content
// keys: the answers that arrive while one group is journaled go into the
// next, so no answer waits for the rest of its batch. Recorded answers
// short-circuit the queue entirely during recovery replay.
func (q *Queue) askAll(ctx context.Context, qs []*Question) []Answer {
	out := make([]Answer, len(qs))
	job := jobIDFrom(ctx)
	replies := make(chan reply, len(qs))
	keys := make([]string, len(qs))
	for i, qu := range qs {
		qu.Job, qu.reply, qu.slot = job, replies, i
		keys[i] = QuestionKey(qu)
	}

	q.mu.Lock()
	if q.closed || ctx.Err() != nil {
		// Never enqueue for a dead asker: a cancelled job's follow-up
		// questions would only flash through the pending list.
		q.mu.Unlock()
		for i := range out {
			out[i] = closedAnswer()
		}
		return out
	}
	done := make([]bool, len(qs))
	open, replayed := 0, 0
	for i, qu := range qs {
		if a, ok := q.takeReplayLocked(job, keys[i]); ok {
			if a.Degraded {
				q.degTotal++
			}
			q.recordHistoryLocked(qu, "replayed")
			out[i], done[i] = a, true
			replayed++
			continue
		}
		q.nextID++
		qu.ID = q.nextID
		qu.Attempt = 1
		if q.deadline > 0 {
			dl := time.Now().Add(q.deadline)
			qu.Deadline = &dl
		}
		q.pending[qu.ID] = qu
		open++
	}
	deadline, maxReasks, journal := q.deadline, q.maxReasks, q.journal
	if open > 0 {
		q.Obs.Add(MetricQuestionsAsked, int64(open))
		q.Obs.SetGauge(MetricPendingQuestions, float64(len(q.pending)))
	}
	q.mu.Unlock()
	if replayed > 0 {
		q.Obs.Add(MetricQuestionsReplayed, int64(replayed))
	}

	var group []wal.KeyedAnswer
	take := func(r reply) {
		out[r.slot], done[r.slot] = r.a, true
		open--
		if !r.a.released {
			group = append(group, wal.KeyedAnswer{Key: keys[r.slot], Answer: r.a})
		}
	}
	for open > 0 {
		var expiry <-chan time.Time
		var timer *time.Timer
		if deadline > 0 {
			if next, ok := q.nextDeadline(qs, done); ok {
				timer = time.NewTimer(time.Until(next))
				expiry = timer.C
			}
		}
		select {
		case r := <-replies:
			take(r)
			// Whatever else arrived meanwhile joins the same group.
			for drained := false; !drained && open > 0; {
				select {
				case r := <-replies:
					take(r)
				default:
					drained = true
				}
			}
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			q.mu.Lock()
			for i, qu := range qs {
				if !done[i] && q.pending[qu.ID] == qu {
					delete(q.pending, qu.ID)
					q.recordHistoryLocked(qu, "cancelled")
				}
			}
			q.Obs.SetGauge(MetricPendingQuestions, float64(len(q.pending)))
			q.mu.Unlock()
			for i := range out {
				if !done[i] {
					out[i] = closedAnswer()
				}
			}
			return out
		case <-expiry:
			for _, i := range q.expire(qs, done, maxReasks) {
				take(reply{i, degradedAnswer()})
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if journal != nil && len(group) > 0 && ctx.Err() == nil {
			journal.RecordAnswers(job, group)
		}
		group = nil
	}
	return out
}

// nextDeadline returns the earliest deadline among the batch's questions
// that are still pending. An open question that is no longer pending was
// answered or released, and its reply is on its way.
func (q *Queue) nextDeadline(qs []*Question, done []bool) (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var next time.Time
	found := false
	for i, qu := range qs {
		if done[i] || q.pending[qu.ID] != qu || qu.Deadline == nil {
			continue
		}
		if !found || qu.Deadline.Before(next) {
			next, found = *qu.Deadline, true
		}
	}
	return next, found
}

// expire handles the batch's pending questions whose deadline has passed:
// each is re-queued with a bumped attempt count, or, once its re-ask budget
// is spent, taken off the queue and counted as degraded. It returns the
// indices of the degraded questions, which the caller answers with the
// edit-free default.
func (q *Queue) expire(qs []*Question, done []bool, maxReasks int) []int {
	var degraded []int
	reasked := 0
	now := time.Now()
	q.mu.Lock()
	for i, qu := range qs {
		if done[i] || q.pending[qu.ID] != qu || qu.Deadline == nil || now.Before(*qu.Deadline) {
			continue
		}
		if qu.Attempt > maxReasks {
			// Re-ask budget exhausted: degrade instead of waiting forever.
			delete(q.pending, qu.ID)
			q.degTotal++
			q.recordHistoryLocked(qu, "degraded")
			degraded = append(degraded, i)
			continue
		}
		qu.Attempt++
		dl := now.Add(q.deadline)
		qu.Deadline = &dl
		reasked++
	}
	if len(degraded) > 0 {
		q.Obs.SetGauge(MetricPendingQuestions, float64(len(q.pending)))
	}
	q.mu.Unlock()
	if len(degraded) > 0 {
		q.Obs.Add(MetricQuestionsExpired, int64(len(degraded)))
	}
	if reasked > 0 {
		q.Obs.Add(MetricQuestionsReasked, int64(reasked))
	}
	return degraded
}

// VerifyFact implements crowd.Oracle.
func (q *Queue) VerifyFact(ctx context.Context, f db.Fact) bool {
	fact := append([]string{f.Rel}, f.Args...)
	a := q.ask(ctx, &Question{
		Kind: KindVerifyFact,
		Text: fmt.Sprintf("Is %s true?", f),
		Fact: fact,
	})
	return a.Bool != nil && *a.Bool
}

// VerifyAnswer implements crowd.Oracle.
func (q *Queue) VerifyAnswer(ctx context.Context, query *cq.Query, t db.Tuple) bool {
	return q.VerifyAnswers(ctx, query, []db.Tuple{t})[0]
}

// VerifyAnswers implements crowd.AnswerBatcher: a round's TRUE(Q, t)?
// questions are pending together and may be answered in any order.
func (q *Queue) VerifyAnswers(ctx context.Context, query *cq.Query, ts []db.Tuple) []bool {
	text := query.String()
	qs := make([]*Question, len(ts))
	for i, t := range ts {
		qs[i] = &Question{
			Kind:  KindVerifyAnswer,
			Text:  fmt.Sprintf("Is %s a correct answer to %s?", t, text),
			Query: text,
			Tuple: t,
		}
	}
	out := make([]bool, len(ts))
	for i, a := range q.askAll(ctx, qs) {
		out[i] = a.Bool != nil && *a.Bool
	}
	return out
}

// Complete implements crowd.Oracle.
func (q *Queue) Complete(ctx context.Context, query *cq.Query, partial eval.Assignment) (eval.Assignment, bool) {
	var unbound []string
	seen := make(map[string]bool)
	for _, v := range query.Vars() {
		if _, ok := partial[v]; !ok && !seen[v] {
			seen[v] = true
			unbound = append(unbound, v)
		}
	}
	sort.Strings(unbound)
	a := q.ask(ctx, &Question{
		Kind:    KindComplete,
		Text:    fmt.Sprintf("Complete %s into true facts (variables: %v)", query, unbound),
		Query:   query.String(),
		Partial: map[string]string(partial.Clone()),
		Unbound: unbound,
	})
	if a.None || a.Bindings == nil {
		return nil, false
	}
	full := partial.Clone()
	for _, v := range unbound {
		val, ok := a.Bindings[v]
		if !ok || val == "" {
			return nil, false
		}
		full[v] = val
	}
	return full, true
}

// CompleteResult implements crowd.Oracle.
func (q *Queue) CompleteResult(ctx context.Context, query *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	rows := make([][]string, len(current))
	for i, t := range current {
		rows[i] = t
	}
	a := q.ask(ctx, &Question{
		Kind:    KindCompleteResult,
		Text:    fmt.Sprintf("Name an answer missing from the result of %s (or declare it complete)", query),
		Query:   query.String(),
		Current: rows,
		arity:   len(query.Head),
	})
	if a.None || len(a.Tuple) != len(query.Head) {
		return nil, false
	}
	return db.Tuple(a.Tuple), true
}
