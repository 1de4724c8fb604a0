package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultfs"
)

// This file is the replication half of the job journal: a Fold that turns an
// event stream back into JobRecords (shared with OpenJobLog), EventsOf to
// turn a record back into a canonical event stream, and ReplicaLog — the
// receiver-side journal a replica keeps for each peer whose JobLog is
// streamed to it. A ReplicaLog has the same durability contract as the JobLog
// it mirrors (fsync per append, sticky errors, torn-tail-tolerant replay) and
// additionally tracks the sender's (boot, seq) cursor so gaps and sender
// restarts are detected instead of silently folded in.

// Fold incrementally reconstructs job records from a journal event stream.
// It is the in-memory shape both OpenJobLog and the replication receiver
// reduce their streams into; the zero value is not usable, use NewFold.
type Fold struct {
	byID   map[int]*JobRecord
	order  []int
	maxJob int
}

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{byID: make(map[int]*JobRecord)}
}

// Apply folds one event. An answer or end for a job with no start record is
// a fatalReplayError — inside scanJournal it reports as corruption even in
// tail position, because the line itself was intact.
func (f *Fold) Apply(ev JobEvent) error {
	if ev.Job > f.maxJob {
		f.maxJob = ev.Job
	}
	switch ev.Ev {
	case "start":
		if _, ok := f.byID[ev.Job]; !ok {
			f.order = append(f.order, ev.Job)
		}
		f.byID[ev.Job] = &JobRecord{ID: ev.Job, Query: ev.Query, Answers: make(map[string][]json.RawMessage)}
	case "answer":
		r, ok := f.byID[ev.Job]
		if !ok {
			return &fatalReplayError{fmt.Errorf("wal: job log answer for unknown job %d", ev.Job)}
		}
		r.Answers[ev.Key] = append(r.Answers[ev.Key], append(json.RawMessage(nil), ev.Answer...))
	case "end":
		r, ok := f.byID[ev.Job]
		if !ok {
			return &fatalReplayError{fmt.Errorf("wal: job log end for unknown job %d", ev.Job)}
		}
		r.Done = true
		r.State = ev.State
	case "seq":
		// ID floor from a previous compaction; already folded into maxJob.
	default:
		return fmt.Errorf("wal: bad job event %q", ev.Ev)
	}
	return nil
}

// MaxJob returns the highest job ID the fold has seen (including seq floors).
func (f *Fold) MaxJob() int { return f.maxJob }

// Records returns deep copies of the folded jobs in start order, safe to
// hold across further Apply calls.
func (f *Fold) Records() []JobRecord {
	jobs := make([]JobRecord, 0, len(f.order))
	for _, id := range f.order {
		jobs = append(jobs, copyRecord(*f.byID[id]))
	}
	return jobs
}

func copyRecord(r JobRecord) JobRecord {
	answers := make(map[string][]json.RawMessage, len(r.Answers))
	for k, raws := range r.Answers {
		answers[k] = append([]json.RawMessage(nil), raws...)
	}
	r.Answers = answers
	return r
}

// EventsOf renders a job record back into the canonical event stream that
// reproduces it: the start, every answer (keys sorted, arrival order within a
// key), and the end when the record is terminal. Compaction, full-state
// replication syncs, and takeover journal adoption all write this stream.
func EventsOf(r JobRecord) []JobEvent {
	events := []JobEvent{{Ev: "start", Job: r.ID, Query: r.Query}}
	keys := make([]string, 0, len(r.Answers))
	for k := range r.Answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, a := range r.Answers[k] {
			events = append(events, JobEvent{Ev: "answer", Job: r.ID, Key: k, Answer: a})
		}
	}
	if r.Done {
		events = append(events, JobEvent{Ev: "end", Job: r.ID, State: r.State})
	}
	return events
}

// Replication metric names recorded when the package is instrumented.
const (
	// MetricReplicaAppends counts events durably appended to replica logs;
	// MetricReplicaResets counts full-state rewrites (sender resyncs).
	MetricReplicaAppends = "wal.replica.appends"
	MetricReplicaResets  = "wal.replica.resets"
)

// shipLine is one line of a replica log: the shipped event plus the sender's
// (boot, seq) cursor after it. Lines with an empty boot are local
// annotations — takeover closeouts and full-sync snapshot events — that carry
// no cursor of their own; a snapshot's cursor is its trailing cursor-only
// line (no event), so a torn snapshot leaves the cursor unset and the next
// append forces a fresh sync.
type shipLine struct {
	Boot  string    `json:"boot,omitempty"`
	Seq   uint64    `json:"seq,omitempty"`
	Event *JobEvent `json:"event,omitempty"`
}

// ReplicaLog is a replica's durable copy of one peer's job journal. Appends
// are accepted only in sender order — the next seq of the current boot —
// so the fold can never silently skip an event; anything else (a gap, an
// unknown boot after a sender restart or receiver retarget) is rejected and
// the sender heals it with a full-state Reset. Duplicate seqs are
// acknowledged without re-appending, which makes sender retries idempotent.
type ReplicaLog struct {
	mu   sync.Mutex
	fs   faultfs.FS
	path string
	f    faultfs.File
	err  error // sticky first append failure, as in JobLog

	boot string
	seq  uint64
	fold *Fold
}

// OpenReplicaLog opens (creating if absent) the replica journal at path and
// rebuilds its fold and cursor. Torn tails are tolerated with the same
// semantics as the job journal; corruption elsewhere is an error.
func OpenReplicaLog(path string, opts ...JobLogOption) (*ReplicaLog, error) {
	options := jobLogOptions{fs: faultfs.OS()}
	for _, o := range opts {
		o(&options)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := options.fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
		}
	}
	rl := &ReplicaLog{fs: options.fs, path: path, fold: NewFold()}
	err := scanJournal(options.fs, path, func(line []byte) error {
		var sl shipLine
		if err := json.Unmarshal(line, &sl); err != nil {
			return err
		}
		if sl.Event != nil {
			if err := rl.fold.Apply(*sl.Event); err != nil {
				return err
			}
		}
		if sl.Boot != "" {
			rl.boot, rl.seq = sl.Boot, sl.Seq
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := options.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening replica log: %w", err)
	}
	rl.f = f
	return rl, nil
}

// State returns the sender cursor the log has durably caught up to.
func (rl *ReplicaLog) State() (boot string, seq uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.boot, rl.seq
}

// Jobs returns the folded job records, in start order.
func (rl *ReplicaLog) Jobs() []JobRecord {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.fold.Records()
}

// appendLocked writes one line and fsyncs. Callers hold rl.mu.
func (rl *ReplicaLog) appendLocked(sl shipLine) error {
	if rl.err != nil {
		return rl.err
	}
	raw, err := json.Marshal(sl)
	if err != nil {
		return fmt.Errorf("wal: encoding replica event: %w", err)
	}
	if _, err := rl.f.Write(append(raw, '\n')); err != nil {
		rl.err = fmt.Errorf("wal: writing replica log: %w", err)
		rec().Inc(MetricAppendErrors)
		return rl.err
	}
	if err := rl.f.Sync(); err != nil {
		rl.err = fmt.Errorf("wal: syncing replica log: %w", err)
		rec().Inc(MetricAppendErrors)
		return rl.err
	}
	return nil
}

// Append offers the event at the sender cursor (boot, seq). It reports
// whether the cursor was accepted: a duplicate of an already-durable seq is
// accepted without re-appending (idempotent retries), the next seq of the
// current boot is appended and fsynced, and anything else — a gap or a boot
// the log has not been Reset to — is rejected so the sender falls back to a
// full-state Reset. The error reports append failures for accepted events.
func (rl *ReplicaLog) Append(boot string, seq uint64, ev JobEvent) (accepted bool, err error) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if boot == rl.boot && seq <= rl.seq {
		return true, nil // duplicate delivery of a durable event
	}
	if boot != rl.boot || seq != rl.seq+1 {
		return false, nil
	}
	if err := rl.appendLocked(shipLine{Boot: boot, Seq: seq, Event: &ev}); err != nil {
		return false, err
	}
	if err := rl.fold.Apply(ev); err != nil {
		return false, err
	}
	rl.seq = seq
	rec().Inc(MetricReplicaAppends)
	return true, nil
}

// Reset replaces the log's contents with a full snapshot of the sender's
// journal state at cursor (boot, seq): the snapshot events are rewritten
// through a temp file, fsync, atomic rename and directory fsync — a crash
// mid-reset leaves either the old log or the new one — and the in-memory fold
// is rebuilt from them. Subsequent Appends continue from seq+1.
func (rl *ReplicaLog) Reset(boot string, seq uint64, jobs []JobRecord) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	tmp, err := rl.fs.CreateTemp(filepath.Dir(rl.path), filepath.Base(rl.path)+".sync-*")
	if err != nil {
		return fmt.Errorf("wal: resetting replica log: %w", err)
	}
	defer rl.fs.Remove(tmp.Name())
	fold := NewFold()
	var werr error
	write := func(sl shipLine) {
		if werr != nil {
			return
		}
		raw, err := json.Marshal(sl)
		if err != nil {
			werr = err
			return
		}
		_, werr = tmp.Write(append(raw, '\n'))
	}
	for _, r := range jobs {
		for _, ev := range EventsOf(r) {
			ev := ev
			write(shipLine{Event: &ev})
			if werr == nil {
				werr = fold.Apply(ev)
			}
		}
	}
	// The cursor line comes last: a torn snapshot has no cursor, so it can
	// never be mistaken for a complete one.
	write(shipLine{Boot: boot, Seq: seq})
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: resetting replica log: %w", werr)
	}
	if err := faultfs.RenameAndSyncDir(rl.fs, tmp.Name(), rl.path); err != nil {
		return fmt.Errorf("wal: resetting replica log: %w", err)
	}
	// Swap the append handle to the new file.
	if rl.f != nil {
		_ = rl.f.Close()
	}
	f, err := rl.fs.OpenFile(rl.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		rl.err = fmt.Errorf("wal: reopening replica log: %w", err)
		return rl.err
	}
	rl.f = f
	rl.err = nil
	rl.fold = fold
	rl.boot, rl.seq = boot, seq
	rec().Inc(MetricReplicaResets)
	return nil
}

// Closeout appends a local end event for one adopted job: the successor took
// the job over and owns its outcome from here on. The line carries no sender
// cursor — it is the receiver's own annotation, not shipped state.
func (rl *ReplicaLog) Closeout(job int, state string) error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	ev := JobEvent{Ev: "end", Job: job, State: state}
	if err := rl.appendLocked(shipLine{Event: &ev}); err != nil {
		return err
	}
	return rl.fold.Apply(ev)
}

// Err returns the first append failure, nil if none.
func (rl *ReplicaLog) Err() error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.err
}

// Close closes the log; appends already fsync.
func (rl *ReplicaLog) Close() error {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if cerr := rl.f.Close(); rl.err == nil && cerr != nil {
		rl.err = fmt.Errorf("wal: closing replica log: %w", cerr)
	}
	return rl.err
}
