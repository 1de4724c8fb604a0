package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultfs"
)

// JobLog is a WAL-style append journal for cleaning jobs: each job's spec is
// journaled when it starts, every crowd answer it consumes is journaled as it
// arrives (keyed by question content), and a terminal event is journaled when
// the job finishes. A restarted server reads the log back, finds the jobs
// with no terminal event, and re-runs them with the recorded answers replayed
// — resuming each job at its first unanswered question.
//
// The log is answer-granular, not edit-granular: replaying answers through
// the deterministic cleaner re-derives the edits. The facts themselves are
// the db.Store's to keep durable; the server syncs the store before it
// journals a job's terminal event, so an end record never outlives the edits
// it vouches for.
//
// Every append is flushed and fsynced before it returns: a crowd answer is
// minutes of human work and must survive the very next crash. An append is
// a group of records (Answers takes the answers that arrived together) with
// one Write per record and one fsync for the group. The first write failure
// is sticky and surfaces from every later append and Close.
type JobLog struct {
	mu      sync.Mutex
	f       faultfs.File
	err     error
	maxJob  int
	shipper func(JobEvent) // replication hook; called under mu after a durable append
}

// JobLogOption configures OpenJobLog.
type JobLogOption func(*jobLogOptions)

type jobLogOptions struct {
	compact bool
	fs      faultfs.FS
}

// WithCompaction rewrites the journal during open, dropping every job that
// already reached a terminal state (done, degraded, failed, cancelled): a
// finished job's record is dead weight — recovery re-registers it from the
// pre-compaction scan but never replays it — and without compaction the
// journal grows with the lifetime job count rather than the in-flight set. A
// "seq" floor record preserves the highest job ID ever issued so restarted
// servers never reuse the ID of a compacted-away job.
func WithCompaction() JobLogOption {
	return func(o *jobLogOptions) { o.compact = true }
}

// WithJobLogFS routes the job log's file operations through fsys — the
// fault-injection seam shared with internal/db. Defaults to faultfs.OS().
func WithJobLogFS(fsys faultfs.FS) JobLogOption {
	return func(o *jobLogOptions) { o.fs = fsys }
}

// JobRecord is one job reconstructed from the log.
type JobRecord struct {
	// ID and Query are the job spec from its start event.
	ID    int
	Query string
	// Answers maps question content keys to the recorded answers, in arrival
	// order (a key repeats when the same question content was asked again).
	Answers map[string][]json.RawMessage
	// Done reports a terminal event was journaled; State is its final state.
	Done  bool
	State string
}

// JobEvent is one journaled line. A "seq" event carries no job of its own:
// it records the highest job ID issued before a compaction dropped the
// records that proved it. The type is exported so a replication layer can
// ship the exact bytes-equivalent events a journal appends (see SetShipper
// and ReplicaLog in ship.go); the wire encoding is unchanged from when it
// was internal.
type JobEvent struct {
	Ev     string          `json:"ev"` // "start", "answer", "end", "seq"
	Job    int             `json:"job"`
	Query  string          `json:"query,omitempty"`  // start
	Key    string          `json:"key,omitempty"`    // answer: question content key
	Answer json.RawMessage `json:"answer,omitempty"` // answer
	State  string          `json:"state,omitempty"`  // end
}

// OpenJobLog opens (creating if absent) the job journal at path and returns
// the jobs recorded in it, in start order. An open that creates the journal
// fsyncs its directory before returning, so the file outlives a crash. A
// torn final line from a crash mid-append is tolerated and counted under
// MetricTornTails; corruption elsewhere is an error.
func OpenJobLog(path string, opts ...JobLogOption) (*JobLog, []JobRecord, error) {
	options := jobLogOptions{fs: faultfs.OS()}
	for _, o := range opts {
		o(&options)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := options.fs.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("wal: creating %s: %w", dir, err)
		}
	}
	fold := NewFold()
	err := scanJournal(options.fs, path, func(line []byte) error {
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		return fold.Apply(ev)
	})
	if err != nil {
		return nil, nil, err
	}
	jobs := fold.Records()
	live := 0
	for i := range jobs {
		if !jobs[i].Done {
			live++
		}
	}
	if options.compact && live < len(jobs) {
		if err := compactJobLog(options.fs, path, jobs, fold.MaxJob()); err != nil {
			return nil, nil, err
		}
		rec().Inc(MetricCompactions)
		rec().Add(MetricCompactedJobs, int64(len(jobs)-live))
	}
	f, err := faultfs.OpenAndSyncDir(options.fs, path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening job log: %w", err)
	}
	return &JobLog{f: f, maxJob: fold.MaxJob()}, jobs, nil
}

// compactJobLog rewrites the journal at path keeping only unfinished jobs,
// prefixed by the seq floor. The rewrite goes through a temp file, fsync,
// atomic rename, and a directory fsync (rename alone is not durable on
// ext4): a crash mid-compaction leaves either the old journal or the new
// one, never a mix.
func compactJobLog(fsys faultfs.FS, path string, jobs []JobRecord, maxJob int) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		return fmt.Errorf("wal: compacting job log: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	write := func(ev JobEvent) error {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = tmp.Write(append(raw, '\n'))
		return err
	}
	werr := write(JobEvent{Ev: "seq", Job: maxJob})
	for _, r := range jobs {
		if werr != nil || r.Done {
			continue
		}
		for _, ev := range EventsOf(r) {
			if werr == nil {
				werr = write(ev)
			}
		}
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: compacting job log: %w", werr)
	}
	if err := faultfs.RenameAndSyncDir(fsys, tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: compacting job log: %w", err)
	}
	return nil
}

// MaxJob returns the highest job ID the journal has ever recorded, including
// IDs whose records were dropped by compaction (via the seq floor). Servers
// use it to seed their job-ID counter so recycled IDs never collide.
func (l *JobLog) MaxJob() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxJob
}

// SetShipper installs a hook invoked synchronously for every event the log
// durably appends, in append order, after the local write and fsync succeed.
// The replication layer uses it to stream the journal to a successor replica;
// events that fail to reach local disk are never shipped, so a receiver's
// copy is always a prefix-or-equal of the sender's durable journal. The hook
// runs under the log's append lock: it must not call back into the log.
func (l *JobLog) SetShipper(fn func(JobEvent)) {
	l.mu.Lock()
	l.shipper = fn
	l.mu.Unlock()
}

// appendGroup journals a group of events with one Write per record, then one
// fsync for the whole group, then hands each event to the shipper in order;
// a single event is the group of one. A crash mid-group leaves a prefix of
// it on disk (a torn final line is dropped at open), and nothing of a group
// is shipped before all of it is durable. The first failure is sticky: later
// appends fail fast with it.
func (l *JobLog) appendGroup(evs []JobEvent) error {
	if len(evs) == 0 {
		return nil
	}
	raws := make([][]byte, len(evs))
	for i, ev := range evs {
		raw, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("wal: encoding job event: %w", err)
		}
		raws[i] = append(raw, '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range evs {
		if ev.Job > l.maxJob {
			l.maxJob = ev.Job
		}
	}
	if l.err != nil {
		return l.err
	}
	for _, raw := range raws {
		if _, err := l.f.Write(raw); err != nil {
			l.err = fmt.Errorf("wal: writing job log: %w", err)
			rec().Inc(MetricAppendErrors)
			return l.err
		}
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: syncing job log: %w", err)
		rec().Inc(MetricAppendErrors)
		return l.err
	}
	if l.shipper != nil {
		for _, ev := range evs {
			l.shipper(ev)
		}
	}
	return nil
}

// Start journals a job spec. Call before the job asks its first question.
func (l *JobLog) Start(job int, query string) error {
	return l.appendGroup([]JobEvent{{Ev: "start", Job: job, Query: query}})
}

// KeyedAnswer is one consumed crowd answer and the content key of the
// question it answers. Answer must be JSON-marshalable (the server journals
// its wire-format Answer type).
type KeyedAnswer struct {
	Key    string
	Answer any
}

// Answers journals a group of one job's consumed crowd answers, in order, as
// one append: one record each and a single fsync.
func (l *JobLog) Answers(job int, answers []KeyedAnswer) error {
	evs := make([]JobEvent, len(answers))
	for i, ka := range answers {
		raw, err := json.Marshal(ka.Answer)
		if err != nil {
			return fmt.Errorf("wal: encoding answer: %w", err)
		}
		evs[i] = JobEvent{Ev: "answer", Job: job, Key: ka.Key, Answer: raw}
	}
	return l.appendGroup(evs)
}

// End journals a job's terminal state; jobs without an end event are
// recovered at the next boot.
func (l *JobLog) End(job int, state string) error {
	return l.appendGroup([]JobEvent{{Ev: "end", Job: job, State: state}})
}

// Err returns the first append failure, nil if none.
func (l *JobLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the log. Appends already fsync, so Close only releases the
// file; it returns the sticky append error if one occurred.
func (l *JobLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); l.err == nil && cerr != nil {
		l.err = fmt.Errorf("wal: closing job log: %w", cerr)
	}
	return l.err
}
