// Package wal keeps the server's durable job state as append-only JSONL
// journals. A JobLog (joblog.go) records each cleaning job's spec, every crowd
// answer it consumes and its terminal state, so a restarted server resumes
// in-flight jobs without re-asking the crowd. A ReplicaLog (ship.go) is a
// replica's copy of a peer's job journal, streamed to it for failover. The
// facts themselves live in the db.Store (db.DiskStore is the durable one);
// replaying the journaled answers through the deterministic cleaner
// re-derives a job's edits.
//
// Both journals share one reader, scanJournal: a torn final line from a crash
// mid-append is tolerated, anything else that fails to decode is a typed
// *CorruptError.
package wal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// Metric names recorded when the package is instrumented.
const (
	// MetricTornTails counts journal recoveries that found (and discarded) a
	// torn trailing record from a crash mid-append.
	MetricTornTails = "wal.replay.torn_tails"
	// MetricAppendErrors counts journal append failures (the first of which
	// also poisons the journal — see JobLog.Err).
	MetricAppendErrors = "wal.append.errors"
	// MetricCompactions counts job-journal compaction runs at open (see
	// WithCompaction); MetricCompactedJobs the terminal jobs they dropped.
	MetricCompactions   = "wal.compact.runs"
	MetricCompactedJobs = "wal.compact.dropped_jobs"
)

// recorder holds the process recorder the package reports into; an atomic
// pointer keeps Instrument safe to call concurrently with open journals.
var recorder atomic.Pointer[obs.Recorder]

// Instrument directs wal metrics (torn-tail recoveries, append errors) into
// r (nil disables). Typically called once at process start.
func Instrument(r *obs.Recorder) { recorder.Store(r) }

// rec returns the active recorder; nil is valid, obs methods are nil-safe.
func rec() *obs.Recorder { return recorder.Load() }

// ErrCorrupt is the sentinel matched (via errors.Is) by every journal
// corruption error: a record that cannot be the result of a crash mid-append
// and must not be silently dropped. Callers distinguish it from I/O errors to
// decide between "restore from backup" and "retry".
var ErrCorrupt = errors.New("wal: corrupt journal")

// CorruptError reports a corrupt journal record: where it sits and why it was
// rejected. It matches ErrCorrupt under errors.Is and unwraps to the decode
// or replay failure.
type CorruptError struct {
	Path string // journal file
	Line int    // 1-based line number of the rejected record
	Err  error  // the underlying decode/replay failure
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt journal record at %s:%d: %v", e.Path, e.Line, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrCorrupt) succeed for CorruptError values.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// tornCandidate reports whether a record decode failure could have been
// produced by a crash mid-append. A torn write leaves a strict prefix of one
// JSON line, and no prefix of a JSON object is itself valid JSON — so only
// JSON syntax errors qualify. A record that decodes as JSON but carries an
// invalid payload (unknown event, wrong field types) is corruption wherever
// it sits, including the last line.
func tornCandidate(err error) bool {
	var syn *json.SyntaxError
	return errors.As(err, &syn)
}

// scanJournal streams the JSONL journal at path into fn, tolerating a torn
// final line (crash mid-append): a record that fails to decode with a JSON
// syntax error is held back one iteration, and only if more records follow is
// it corruption — a syntactically malformed last line is a torn tail instead,
// counted under MetricTornTails and otherwise ignored. Decode failures that
// cannot result from tearing (valid JSON with an invalid payload, or a
// fatalReplayError from fn) surface as *CorruptError in any position. A
// missing file is an empty journal.
func scanJournal(fsys faultfs.FS, path string, fn func(line []byte) error) error {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: opening journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var lastErr error
	lastLine := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if lastErr != nil {
			// A malformed record followed by more records is corruption, not
			// a torn tail.
			return &CorruptError{Path: path, Line: lastLine, Err: lastErr}
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			var fatal *fatalReplayError
			if errors.As(err, &fatal) {
				// The record itself was intact; the failure is not a torn
				// tail even in last position.
				return &CorruptError{Path: path, Line: lineNo, Err: fatal.err}
			}
			if !tornCandidate(err) {
				return &CorruptError{Path: path, Line: lineNo, Err: err}
			}
			lastErr = err
			lastLine = lineNo
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("wal: reading journal: %w", err)
	}
	if lastErr != nil {
		rec().Inc(MetricTornTails)
	}
	return nil
}

// fatalReplayError marks a scan callback failure that must fail the whole
// replay even in tail position (the record itself was intact).
type fatalReplayError struct{ err error }

func (e *fatalReplayError) Error() string { return e.err.Error() }
