package crowd

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// DefaultTranscriptTail is the number of recent interactions a Transcript
// retains in memory when no explicit limit is set.
const DefaultTranscriptTail = 1024

// Transcript wraps an oracle and logs every question and answer as one text
// line to a writer — the audit trail a deployed cleaning session keeps of its
// crowd interactions. Alongside the stream it retains a bounded in-memory
// tail of recent lines (DefaultTranscriptTail unless SetLimit says
// otherwise), so a long-lived server can expose recent crowd traffic without
// growing with the lifetime question count. It is safe for concurrent use.
type Transcript struct {
	Oracle Oracle

	mu    sync.Mutex
	w     io.Writer
	n     int
	limit int      // retained-tail capacity; 0 disables retention
	tail  []string // ring of the last limit lines
	head  int      // index of the oldest line once the ring is full
}

// NewTranscript wraps an oracle, logging to w. A nil writer is allowed: the
// transcript then only keeps its in-memory tail.
func NewTranscript(o Oracle, w io.Writer) *Transcript {
	return &Transcript{Oracle: o, w: w, limit: DefaultTranscriptTail}
}

// SetLimit caps the retained in-memory tail at n lines (0 disables
// retention). Shrinking keeps the most recent lines. The streamed writer is
// unaffected — this bounds memory, not the audit trail.
func (t *Transcript) SetLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.tailLocked()
	t.limit = n
	t.head = 0
	if n <= 0 {
		t.tail = nil
		return
	}
	if len(cur) > n {
		cur = cur[len(cur)-n:]
	}
	t.tail = append([]string(nil), cur...)
}

func (t *Transcript) log(format string, args ...interface{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	line := fmt.Sprintf("[%03d] %s", t.n, fmt.Sprintf(format, args...))
	if t.w != nil {
		fmt.Fprintln(t.w, line)
	}
	if t.limit <= 0 {
		return
	}
	if len(t.tail) < t.limit {
		t.tail = append(t.tail, line)
		return
	}
	t.tail[t.head] = line
	t.head = (t.head + 1) % t.limit
}

// Lines returns the number of logged interactions (all-time, not just the
// retained tail).
func (t *Transcript) Lines() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Tail returns the retained recent lines, oldest first.
func (t *Transcript) Tail() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tailLocked()
}

func (t *Transcript) tailLocked() []string {
	out := make([]string, 0, len(t.tail))
	out = append(out, t.tail[t.head:]...)
	out = append(out, t.tail[:t.head]...)
	return out
}

// VerifyFact implements Oracle.
func (t *Transcript) VerifyFact(ctx context.Context, f db.Fact) bool {
	ans := t.Oracle.VerifyFact(ctx, f)
	t.log("TRUE(%s)? -> %v", f, ans)
	return ans
}

// VerifyAnswer implements Oracle.
func (t *Transcript) VerifyAnswer(ctx context.Context, q *cq.Query, tp db.Tuple) bool {
	ans := t.Oracle.VerifyAnswer(ctx, q, tp)
	name := q.Name
	if name == "" {
		name = "Q"
	}
	t.log("TRUE(%s, %s)? -> %v", name, tp, ans)
	return ans
}

// Complete implements Oracle.
func (t *Transcript) Complete(ctx context.Context, q *cq.Query, partial eval.Assignment) (eval.Assignment, bool) {
	full, ok := t.Oracle.Complete(ctx, q, partial)
	if ok {
		t.log("COMPL(%s, %s) -> %s", partial, q, full)
	} else {
		t.log("COMPL(%s, %s) -> non-satisfiable", partial, q)
	}
	return full, ok
}

// CompleteResult implements Oracle.
func (t *Transcript) CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	tp, ok := t.Oracle.CompleteResult(ctx, q, current)
	if ok {
		t.log("COMPL(Q(D)) over %d rows -> %s", len(current), tp)
	} else {
		t.log("COMPL(Q(D)) over %d rows -> complete", len(current))
	}
	return tp, ok
}
