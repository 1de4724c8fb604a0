package main

import (
	"context"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faultfs"
	"repro/internal/hitting"
	"repro/internal/obs"
	"repro/internal/split"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent 0 marks a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. Every span except spanJob and the HTTP spans is a child of
// the job it ran in; HTTP spans are roots tagged with their job, so a job's
// self time is its wall time minus the crowd, split and storage calls it
// made, as the README defines core.self_s.
const (
	spanJob      = "job"
	spanCrowd    = "crowd"
	spanSplit    = "split"
	spanDBApply  = "db.apply"
	spanDBFsync  = "db.fsync"
	spanWALFsync = "wal.fsync"
	spanHTTP     = "http."
)

// tracer records spans around the calls the benchmark makes into each
// layer's public seams: the crowd.Oracle, split.Strategy and db.Store it
// hands to the cleaner or server, the faultfs.FS under the disk store and
// job journal, and its own HTTP client. Spans stay in memory until the run
// ends. rec is the obs recorder the evaluator, cleaner and server report
// into during traced jobs.
type tracer struct {
	t0  time.Time
	rec *obs.Recorder

	mu        sync.Mutex
	spans     []span
	job       int // current job number, 0 between jobs
	jobSpan   int // ID of the current job's root span
	crowdEval obsTally
	splitOK   int
	editBytes int64
	dbFS      fsTally
	walFS     fsTally
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), rec: obs.New()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginJob opens job's root span; the returned func closes it. Spans opened
// in between become its children.
func (t *tracer) beginJob(job int) func() {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Job: job, Name: spanJob, Start: t.now()})
	idx := len(t.spans) - 1
	t.job, t.jobSpan = job, t.spans[idx].ID
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[idx].End = t.now()
		t.job, t.jobSpan = 0, 0
		t.mu.Unlock()
	}
}

// begin opens a span named name under the current job (or as a root tagged
// with the current job when root is set); the returned func closes it.
func (t *tracer) begin(name string, root bool) func() {
	start := t.now()
	return func() {
		end := t.now()
		t.mu.Lock()
		s := span{ID: len(t.spans) + 1, Job: t.job, Name: name, Start: start, End: end}
		if !root {
			s.Parent = t.jobSpan
		}
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			start, end := max(k.Start, cur), min(k.End, s.End)
			if end > start {
				covered += end - start
				cur = end
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// obsTally is the slice of the obs recorder the per-layer eval and hitting
// metrics read. The tracer snapshots it around every crowd call so
// evaluation the simulated crowd runs over DG is charged to the crowd, not
// to eval.
type obsTally struct {
	witnessCalls, resultCalls    int64
	witnessSecs, resultSecs      float64
	witnessSets                  float64
	cacheHits, cacheMisses       int64
	maintainedHits, maintainedMs int64
	bnbNodes                     int64
}

func readTally(r *obs.Recorder) obsTally {
	s := r.Snapshot()
	w, res, sets := s.Histograms[eval.MetricWitnessSeconds], s.Histograms[eval.MetricResultSeconds], s.Histograms[eval.MetricWitnessSets]
	return obsTally{
		witnessCalls: w.Count, witnessSecs: w.Sum, witnessSets: sets.Sum,
		resultCalls: res.Count, resultSecs: res.Sum,
		cacheHits: s.Counters[eval.MetricCacheHits], cacheMisses: s.Counters[eval.MetricCacheMisses],
		maintainedHits: s.Counters[eval.MetricMaintainedHits], maintainedMs: s.Counters[eval.MetricMaintainedMisses],
		bnbNodes: s.Counters[hitting.MetricBnBNodes],
	}
}

// plus returns a + sign·b field by field.
func (a obsTally) plus(b obsTally, sign int64) obsTally {
	f := float64(sign)
	return obsTally{
		witnessCalls: a.witnessCalls + sign*b.witnessCalls, witnessSecs: a.witnessSecs + f*b.witnessSecs,
		witnessSets: a.witnessSets + f*b.witnessSets,
		resultCalls: a.resultCalls + sign*b.resultCalls, resultSecs: a.resultSecs + f*b.resultSecs,
		cacheHits: a.cacheHits + sign*b.cacheHits, cacheMisses: a.cacheMisses + sign*b.cacheMisses,
		maintainedHits: a.maintainedHits + sign*b.maintainedHits, maintainedMs: a.maintainedMs + sign*b.maintainedMs,
		bnbNodes: a.bnbNodes + sign*b.bnbNodes,
	}
}

// crowdCall opens a crowd span and charges the evaluation done until the
// returned func runs to the crowd.
func (t *tracer) crowdCall() func() {
	before := readTally(t.rec)
	end := t.begin(spanCrowd, false)
	return func() {
		end()
		d := readTally(t.rec).plus(before, -1)
		t.mu.Lock()
		t.crowdEval = t.crowdEval.plus(d, 1)
		t.mu.Unlock()
	}
}

// tracedOracle times every question the cleaner poses to the crowd.
type tracedOracle struct {
	inner crowd.Oracle
	t     *tracer
}

func (o tracedOracle) VerifyFact(ctx context.Context, f db.Fact) bool {
	defer o.t.crowdCall()()
	return o.inner.VerifyFact(ctx, f)
}

func (o tracedOracle) VerifyAnswer(ctx context.Context, q *cq.Query, tu db.Tuple) bool {
	defer o.t.crowdCall()()
	return o.inner.VerifyAnswer(ctx, q, tu)
}

func (o tracedOracle) Complete(ctx context.Context, q *cq.Query, partial eval.Assignment) (eval.Assignment, bool) {
	defer o.t.crowdCall()()
	return o.inner.Complete(ctx, q, partial)
}

func (o tracedOracle) CompleteResult(ctx context.Context, q *cq.Query, current []db.Tuple) (db.Tuple, bool) {
	defer o.t.crowdCall()()
	return o.inner.CompleteResult(ctx, q, current)
}

// tracedSplit times Algorithm 2's split decisions and counts the ones that
// found a split.
type tracedSplit struct {
	inner split.Strategy
	t     *tracer
}

func (s tracedSplit) Name() string { return s.inner.Name() }

func (s tracedSplit) Split(q *cq.Query, d db.Reader) (*cq.Query, *cq.Query, bool) {
	end := s.t.begin(spanSplit, false)
	a, b, ok := s.inner.Split(q, d)
	end()
	if ok {
		s.t.mu.Lock()
		s.t.splitOK++
		s.t.mu.Unlock()
	}
	return a, b, ok
}

// tracedStore times the edits the cleaner applies to the fact store and
// tallies their payload bytes, the base of db.write_amp. Everything else
// passes straight through.
type tracedStore struct {
	db.Store
	t *tracer
}

func (s tracedStore) Apply(e db.Edit) (bool, error) {
	end := s.t.begin(spanDBApply, false)
	changed, err := s.Store.Apply(e)
	end()
	n := int64(len(e.Fact.Rel))
	for _, a := range e.Fact.Args {
		n += int64(len(a))
	}
	s.t.mu.Lock()
	s.t.editBytes += n
	s.t.mu.Unlock()
	return changed, err
}

// Err forwards the disk store's sticky write error, which the server polls
// for its storage health checks.
func (s tracedStore) Err() error {
	if es, ok := s.Store.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// fsTally counts the file traffic one storage layer sends through its
// faultfs seam.
type fsTally struct {
	writeBytes int64
	writes     int64
	fsyncs     int64
	fsyncNs    int64
}

// plus returns a + sign·b field by field.
func (a fsTally) plus(b fsTally, sign int64) fsTally {
	return fsTally{
		writeBytes: a.writeBytes + sign*b.writeBytes, writes: a.writes + sign*b.writes,
		fsyncs: a.fsyncs + sign*b.fsyncs, fsyncNs: a.fsyncNs + sign*b.fsyncNs,
	}
}

// countingFS wraps the faultfs seam of one storage layer (the disk store or
// the job journal), counting the bytes written to and timing the fsyncs of
// the files it opens for writing.
type countingFS struct {
	faultfs.FS
	t     *tracer
	name  string   // span name for fsyncs
	tally *fsTally // guarded by t.mu
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c countingFS) read() fsTally {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return *c.tally
}

type countingFile struct {
	faultfs.File
	fs countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.t.mu.Lock()
	f.fs.tally.writeBytes += int64(n)
	f.fs.tally.writes++
	f.fs.t.mu.Unlock()
	return n, err
}

func (f countingFile) Sync() error {
	start := time.Now()
	end := f.fs.t.begin(f.fs.name, false)
	err := f.File.Sync()
	end()
	f.fs.t.mu.Lock()
	f.fs.tally.fsyncs++
	f.fs.tally.fsyncNs += int64(time.Since(start))
	f.fs.t.mu.Unlock()
	return err
}
