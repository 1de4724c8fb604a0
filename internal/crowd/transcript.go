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

// Transcript wraps an oracle and logs every question and answer as one text
// line to a writer — the audit trail a deployed cleaning session keeps of its
// crowd interactions. It is safe for concurrent use.
type Transcript struct {
	Oracle Oracle

	mu sync.Mutex
	w  io.Writer
	n  int
}

// NewTranscript wraps an oracle, logging to w.
func NewTranscript(o Oracle, w io.Writer) *Transcript {
	return &Transcript{Oracle: o, w: w}
}

func (t *Transcript) log(format string, args ...interface{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	fmt.Fprintf(t.w, "[%03d] %s\n", t.n, fmt.Sprintf(format, args...))
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
