package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// perfectAnswer builds the wire answer a perfect crowd member would give.
func perfectAnswer(qu *Question, oracle *crowd.Perfect) Answer {
	var a Answer
	ctx := context.Background()
	switch qu.Kind {
	case KindVerifyFact:
		v := oracle.VerifyFact(ctx, db.NewFact(qu.Fact[0], qu.Fact[1:]...))
		a.Bool = &v
	case KindVerifyAnswer:
		v := oracle.VerifyAnswer(ctx, cq.MustParse(qu.Query), db.Tuple(qu.Tuple))
		a.Bool = &v
	case KindComplete:
		partial := eval.Assignment{}
		for k, v := range qu.Partial {
			partial[k] = v
		}
		full, ok := oracle.Complete(ctx, cq.MustParse(qu.Query), partial)
		if !ok {
			a.None = true
			break
		}
		a.Bindings = map[string]string{}
		for _, v := range qu.Unbound {
			a.Bindings[v] = full[v]
		}
	case KindCompleteResult:
		cur := make([]db.Tuple, len(qu.Current))
		for i, r := range qu.Current {
			cur[i] = db.Tuple(r)
		}
		tp, ok := oracle.CompleteResult(ctx, cq.MustParse(qu.Query), cur)
		if !ok {
			a.None = true
			break
		}
		a.Tuple = tp
	}
	return a
}

// waitQuestion polls until a question with ID > afterID is pending.
func waitQuestion(t *testing.T, q *Queue, afterID int) *Question {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		for _, qu := range q.Pending() {
			if qu.ID > afterID {
				return qu
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no question after id %d appeared", afterID)
	return nil
}

// jobView reads a job's current state under the server lock.
func jobView(s *Server, id int) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}
	}
	return *job
}

// TestJobRecoveryAfterCrash is the kill-and-restart acceptance test: start a
// cleaning job against Figure 1, answer a strict subset of its questions,
// abandon the process (the journal is all that survives, as after SIGKILL),
// then boot a second server over the same journal and a fresh copy of the
// dirty database. The recovered job must replay the journaled answers — never
// re-asking them — and finish with Q(D) = Q(DG).
func TestJobRecoveryAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	log1, recs, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d jobs", len(recs))
	}

	d1, dg := dataset.Figure1()
	oracle := crowd.NewPerfect(dg)
	srv1 := New(d1, core.Config{})
	srv1.SetJobLog(log1)
	job := srv1.startJob(dataset.IntroQ1(), nil)

	// Answer the first two questions. Waiting for each successor question
	// guarantees the answer was consumed and journaled (the serial cleaner
	// asks the next question only after recording the previous answer).
	answered := make(map[string]bool)
	lastID := 0
	const subset = 2
	for i := 0; i < subset; i++ {
		qu := waitQuestion(t, srv1.Queue(), lastID)
		answered[QuestionKey(qu)] = true
		if err := srv1.Queue().Answer(qu.ID, perfectAnswer(qu, oracle)); err != nil {
			t.Fatalf("answering question %d: %v", qu.ID, err)
		}
		lastID = qu.ID
	}
	waitQuestion(t, srv1.Queue(), lastID)

	// "Crash": stop the first server. Close deliberately journals no terminal
	// event for the running job, so the journal looks exactly as it would
	// after a SIGKILL at this point.
	srv1.Close()
	log1.Close()

	log2, recs2, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recs2) != 1 {
		t.Fatalf("journal has %d jobs, want 1", len(recs2))
	}
	rec := recs2[0]
	if rec.Done {
		t.Fatalf("interrupted job journaled as done (%s)", rec.State)
	}
	total := 0
	for _, as := range rec.Answers {
		total += len(as)
	}
	if total != subset {
		t.Fatalf("journal holds %d answers, want %d", total, subset)
	}

	// Restart over a fresh copy of the dirty database: the replayed answers
	// plus the deterministic cleaner re-derive all prior edits.
	d2, _ := dataset.Figure1()
	srv2 := New(d2, core.Config{})
	srv2.SetJobLog(log2)
	defer srv2.Close()
	n, err := srv2.Recover(recs2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("Recover resumed %d jobs, want 1", n)
	}

	// Drive the recovered job to completion; any re-ask of a journaled
	// question means replay failed.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur := jobView(srv2, job.ID)
		if cur.State != JobRunning {
			if cur.State != JobDone {
				t.Fatalf("recovered job finished %s (%s)", cur.State, cur.Error)
			}
			if !cur.Recovered {
				t.Errorf("finished job not marked recovered")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered job did not finish")
		}
		for _, qu := range srv2.Queue().Pending() {
			if answered[QuestionKey(qu)] {
				t.Fatalf("journaled question re-asked after recovery: %s", qu.Text)
			}
			if err := srv2.Queue().Answer(qu.ID, perfectAnswer(qu, oracle)); err != nil {
				t.Fatalf("answering question %d: %v", qu.ID, err)
			}
		}
		time.Sleep(time.Millisecond)
	}

	if got := srv2.Obs().Counter(MetricQuestionsReplayed); got != int64(subset) {
		t.Errorf("replayed %d questions, want %d", got, subset)
	}

	// Q(D) = Q(DG): the cleaned database matches the ground truth.
	want := eval.Result(dataset.IntroQ1(), dg)
	got := eval.Result(dataset.IntroQ1(), d2)
	if len(got) != len(want) {
		t.Fatalf("cleaned result %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("cleaned result %v, want %v", got, want)
		}
	}

	// The terminal state reached the journal: a third boot has nothing to do.
	log3, recs3, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if len(recs3) != 1 || !recs3[0].Done || recs3[0].State != string(JobDone) {
		t.Fatalf("final journal record = %+v, want done", recs3[0])
	}
}

// TestDeadlineDegradesJob starves a job of crowd answers: every question must
// expire through its re-ask budget and resolve to the edit-free default, and
// the job must terminate as degraded — with zero edits — instead of hanging.
func TestDeadlineDegradesJob(t *testing.T) {
	d, _ := dataset.Figure1()
	srv := New(d, core.Config{})
	defer srv.Close()
	srv.Queue().SetDeadline(15*time.Millisecond, 1)

	job := srv.startJob(dataset.IntroQ1(), nil)

	// Questions carry their deadline and attempt count while pending.
	qu := waitQuestion(t, srv.Queue(), 0)
	if qu.Deadline == nil {
		t.Errorf("pending question has no deadline")
	}
	if qu.Attempt < 1 {
		t.Errorf("pending question attempt = %d", qu.Attempt)
	}

	deadline := time.Now().Add(20 * time.Second)
	var cur Job
	for {
		cur = jobView(srv, job.ID)
		if cur.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("starved job did not terminate")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cur.State != JobDegraded {
		t.Fatalf("starved job finished %s (%s), want %s", cur.State, cur.Error, JobDegraded)
	}
	if cur.Report == nil || !cur.Report.Degraded || cur.Report.DegradedQuestions < 1 {
		t.Fatalf("report = %+v, want degraded with counted questions", cur.Report)
	}
	if cur.Report.Insertions != 0 || cur.Report.Deletions != 0 {
		t.Errorf("degraded defaults caused edits: %+v", cur.Report)
	}
	if got := srv.Queue().DegradedAnswers(); got != cur.Report.DegradedQuestions {
		t.Errorf("queue counts %d degraded answers, report says %d", got, cur.Report.DegradedQuestions)
	}
	// Exhausting the budget implies at least one re-ask happened first.
	if srv.Obs().Counter(MetricQuestionsReasked) < 1 {
		t.Errorf("no re-asks recorded before degradation")
	}
	if srv.Obs().Counter(MetricQuestionsExpired) < 1 {
		t.Errorf("no expiries recorded")
	}
}

// TestRecoveryAfterCompaction: a restart that compacts the journal must still
// resume the in-flight job, keep the finished job's history out of the file,
// and never reuse a compacted-away job ID.
func TestRecoveryAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	log1, _, err := wal.OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}

	d1, dg := dataset.Figure1()
	oracle := crowd.NewPerfect(dg)
	srv1 := New(d1, core.Config{})
	srv1.SetJobLog(log1)

	// Job 1 runs to completion: its terminal state is journaled.
	job1 := srv1.startJob(dataset.IntroQ1(), nil)
	deadline := time.Now().Add(20 * time.Second)
	for jobView(srv1, job1.ID).State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job 1 did not finish")
		}
		for _, qu := range srv1.Queue().Pending() {
			_ = srv1.Queue().Answer(qu.ID, perfectAnswer(qu, oracle))
		}
		time.Sleep(time.Millisecond)
	}
	if st := jobView(srv1, job1.ID).State; st != JobDone {
		t.Fatalf("job 1 finished %s, want done", st)
	}

	// Job 2 gets a strict subset of its answers, then the process "dies".
	job2 := srv1.startJob(dataset.IntroQ2(), nil)
	qu := waitQuestion(t, srv1.Queue(), 0)
	if err := srv1.Queue().Answer(qu.ID, perfectAnswer(qu, oracle)); err != nil {
		t.Fatal(err)
	}
	waitQuestion(t, srv1.Queue(), qu.ID)
	srv1.Close()
	log1.Close()

	// Restart with compaction: job 1's records are dropped from the file but
	// still reported for re-registration; job 2 resumes.
	log2, recs, err := wal.OpenJobLog(path, wal.WithCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recs) != 2 {
		t.Fatalf("compacting open returned %d jobs, want 2", len(recs))
	}

	d2, _ := dataset.Figure1()
	srv2 := New(d2, core.Config{})
	srv2.SetJobLog(log2)
	defer srv2.Close()
	if n, err := srv2.Recover(recs); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 resumed", n, err)
	}
	if st := jobView(srv2, job1.ID).State; st != JobDone {
		t.Errorf("finished job re-registered as %s, want done", st)
	}

	// Drive the resumed job home.
	deadline = time.Now().Add(20 * time.Second)
	for jobView(srv2, job2.ID).State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("resumed job did not finish")
		}
		for _, qu := range srv2.Queue().Pending() {
			_ = srv2.Queue().Answer(qu.ID, perfectAnswer(qu, oracle))
		}
		time.Sleep(time.Millisecond)
	}
	if st := jobView(srv2, job2.ID).State; st != JobDone {
		t.Fatalf("resumed job finished %s, want done", st)
	}

	// New work never collides with a compacted-away ID.
	job3 := srv2.startJob(dataset.IntroQ1(), nil)
	if job3.ID <= job2.ID {
		t.Fatalf("new job ID %d not past journal floor %d", job3.ID, job2.ID)
	}

	// A third open (still compacting) now sees only the live tail.
	srv2.Close()
	log2.Close()
	_, recs3, err := wal.OpenJobLog(path, wal.WithCompaction())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs3 {
		if r.ID == job1.ID {
			t.Errorf("job 1 still in the journal after compaction: %+v", r)
		}
	}
}

// answerUntilDone drives job id on srv to a terminal state with perfect
// answers, failing on any question whose key is in journaled (a replayed
// answer must never be re-asked), and returns the number of answers given.
func answerUntilDone(t *testing.T, srv *Server, id int, oracle *crowd.Perfect, journaled map[string]bool) int {
	t.Helper()
	n := 0
	deadline := time.Now().Add(20 * time.Second)
	for jobView(srv, id).State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %d did not finish", id)
		}
		for _, qu := range srv.Queue().Pending() {
			if journaled[QuestionKey(qu)] {
				t.Fatalf("journaled question re-asked after recovery: %s", qu.Text)
			}
			if srv.Queue().Answer(qu.ID, perfectAnswer(qu, oracle)) == nil {
				n++
			}
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// waitTerminal polls until job id leaves the running state.
func waitTerminal(t *testing.T, srv *Server, id int) Job {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if cur := jobView(srv, id); cur.State != JobRunning {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d did not terminate", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameTuples reports whether two sorted result sets are equal.
func sameTuples(a, b []db.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// openFigure1Disk opens a disk store in dir holding the dirty
// Figure 1 database, synced.
func openFigure1Disk(t *testing.T, dir string, opts ...db.DiskOption) *db.DiskStore {
	t.Helper()
	d0, _ := dataset.Figure1()
	ds, err := db.OpenDisk(dir, d0.Schema(), 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Copy(ds, d0); err != nil {
		t.Fatal(err)
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestCrashAfterAnswersOnDisk kills a Figure 1 job over a journaled disk
// store after k durable answers, for every k up to and past the job's end:
// the server stops, the store drops everything it never synced, and a second
// server recovers over the same directory and journal. Every row must reach
// Q(D) = Q(DG) without re-asking a journaled question. The job's first round
// poses its two TRUE(Q, t)? questions together, so k = 1 crashes inside
// that batch after its first group's fsync. The past-the-end row pins the
// ordering rule: the store is synced before the end record, so a job the
// journal calls done never loses its edits. The batch rows crash inside a
// larger batch around a held journal fsync (see crashInsideBatch).
func TestCrashAfterAnswersOnDisk(t *testing.T) {
	d0, dg := dataset.Figure1()
	oracle := crowd.NewPerfect(dg)
	probe := New(d0, core.Config{})
	total := answerUntilDone(t, probe, probe.startJob(dataset.IntroQ1(), nil).ID, oracle, nil)
	probe.Close()
	if total == 0 {
		t.Fatal("the Figure 1 job asked no questions")
	}
	want := eval.Result(dataset.IntroQ1(), dg)

	for k := 0; k <= total; k++ {
		name := fmt.Sprintf("k=%d", k)
		if k == total {
			name = "past-end"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			storeDir, logPath := filepath.Join(dir, "store"), filepath.Join(dir, "jobs.log")
			ds := openFigure1Disk(t, storeDir)
			log1, _, err := wal.OpenJobLog(logPath)
			if err != nil {
				t.Fatal(err)
			}
			var shipped atomic.Int64
			log1.SetShipper(countAnswers(&shipped))
			srv1 := New(ds, core.Config{})
			srv1.SetJobLog(log1)
			job := srv1.startJob(dataset.IntroQ1(), nil)

			journaled := make(map[string]bool)
			if k < total {
				lastID := 0
				for i := 0; i < k; i++ {
					qu := waitQuestion(t, srv1.Queue(), lastID)
					journaled[QuestionKey(qu)] = true
					if err := srv1.Queue().Answer(qu.ID, perfectAnswer(qu, oracle)); err != nil {
						t.Fatal(err)
					}
					lastID = qu.ID
					waitShipped(t, &shipped, int64(i+1))
				}
			} else {
				answerUntilDone(t, srv1, job.ID, oracle, nil)
			}
			srv1.Close()
			waitTerminal(t, srv1, job.ID)
			ds.Crash()
			log1.Close()

			ds2, err := db.OpenDisk(storeDir, d0.Schema(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ds2.Close()
			log2, recs, err := wal.OpenJobLog(logPath)
			if err != nil {
				t.Fatal(err)
			}
			defer log2.Close()
			srv2 := New(ds2, core.Config{})
			srv2.SetJobLog(log2)
			defer srv2.Close()
			if _, err := srv2.Recover(recs); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			answerUntilDone(t, srv2, job.ID, oracle, journaled)
			if st := jobView(srv2, job.ID).State; st != JobDone {
				t.Fatalf("job ended %s, want done", st)
			}
			got := eval.Result(dataset.IntroQ1(), ds2)
			if !sameTuples(got, want) {
				t.Fatalf("Q(D) = %v after recovery, want Q(DG) = %v", got, want)
			}
		})
	}

	for _, tc := range []struct {
		name            string
		release, onDisk bool
	}{
		{"batch/group-fsynced", true, true},
		{"batch/fsync-held-record-kept", false, true},
		{"batch/fsync-held-record-lost", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) { crashInsideBatch(t, tc.release, tc.onDisk) })
	}
}

// crashInsideBatch crashes a Figure 1 job inside its first round, whose
// query (x, y) :- Teams(x, y) poses four TRUE(Q, t)? questions together. It
// holds the journal fsync of the first answer's group and answers two more
// questions meanwhile. With release set, the hold lifts, the two answers
// form one group with one fsync, and the crash lands after that fsync with
// the fourth question still pending. Otherwise the crash lands while the
// fsync is held, with the first answer's record on disk or not (onDisk).
// Recovery runs over a fresh copy of the dirty store, since a job that never
// ended synced nothing to it, and must converge without re-asking any answer
// the crashed journal holds.
func crashInsideBatch(t *testing.T, release, onDisk bool) {
	q := cq.MustParse("(x, y) :- Teams(x, y).")
	_, dg := dataset.Figure1()
	oracle := crowd.NewPerfect(dg)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "jobs.log")
	hold := newHoldFS(t)
	log1, _, err := wal.OpenJobLog(logPath, wal.WithJobLogFS(hold))
	if err != nil {
		t.Fatal(err)
	}
	var shipped atomic.Int64
	log1.SetShipper(countAnswers(&shipped))
	ds := openFigure1Disk(t, filepath.Join(dir, "store"))
	srv1 := New(ds, core.Config{})
	srv1.SetJobLog(log1)
	job := srv1.startJob(q, nil)

	var batch []*Question
	for deadline := time.Now().Add(20 * time.Second); len(batch) < 4; batch = srv1.Queue().Pending() {
		if time.Now().After(deadline) {
			t.Fatalf("first round pending = %d questions, want 4", len(batch))
		}
		time.Sleep(time.Millisecond)
	}
	answer := func(qu *Question) {
		t.Helper()
		if err := srv1.Queue().Answer(qu.ID, perfectAnswer(qu, oracle)); err != nil {
			t.Fatal(err)
		}
	}
	hold.arm()
	answer(batch[0])
	<-hold.held
	syncsBefore := hold.syncs.Load()
	answer(batch[1])
	answer(batch[2])
	want := []*Question{batch[0]}
	if release {
		hold.release()
		waitShipped(t, &shipped, 3)
		if n := hold.syncs.Load() - syncsBefore; n != 1 {
			t.Errorf("the two answers that arrived during the held fsync took %d fsyncs, want 1", n)
		}
		want = batch[:3]
	} else if !onDisk {
		want = nil
	}
	crashed, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !onDisk {
		// Drop the held group's record: the fsync never returned.
		crashed = crashed[:bytes.LastIndexByte(crashed[:len(crashed)-1], '\n')+1]
	}
	hold.release()
	srv1.Close()
	waitTerminal(t, srv1, job.ID)
	log1.Close()
	ds.Close()

	dir2 := t.TempDir()
	logPath2 := filepath.Join(dir2, "jobs.log")
	if err := os.WriteFile(logPath2, crashed, 0o644); err != nil {
		t.Fatal(err)
	}
	ds2 := openFigure1Disk(t, filepath.Join(dir2, "store"))
	defer ds2.Close()
	log2, recs, err := wal.OpenJobLog(logPath2)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	journaled := make(map[string]bool)
	for _, r := range recs {
		for k := range r.Answers {
			journaled[k] = true
		}
	}
	if len(journaled) != len(want) {
		t.Fatalf("crashed journal holds %d answers, want %d", len(journaled), len(want))
	}
	for _, qu := range want {
		if !journaled[QuestionKey(qu)] {
			t.Fatalf("crashed journal lacks the answer to %s", qu.Text)
		}
	}
	srv2 := New(ds2, core.Config{})
	srv2.SetJobLog(log2)
	defer srv2.Close()
	if _, err := srv2.Recover(recs); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	answerUntilDone(t, srv2, job.ID, oracle, journaled)
	if st := jobView(srv2, job.ID).State; st != JobDone {
		t.Fatalf("job ended %s, want done", st)
	}
	if got, want := eval.Result(q, ds2), eval.Result(q, dg); !sameTuples(got, want) {
		t.Fatalf("Q(D) = %v after recovery, want Q(DG) = %v", got, want)
	}
}

// countAnswers is a journal shipper that counts the answer records that
// reached disk: the log ships an event only after its group's fsync.
func countAnswers(n *atomic.Int64) func(wal.JobEvent) {
	return func(ev wal.JobEvent) {
		if ev.Ev == "answer" {
			n.Add(1)
		}
	}
}

// waitShipped polls until the journal has made want answers durable.
func waitShipped(t *testing.T, shipped *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for shipped.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d answers journaled", shipped.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdFS is a job-journal file system whose fsync a test can hold: after
// arm, the next Sync signals held and blocks until release. It counts
// every Sync.
type holdFS struct {
	faultfs.FS
	syncs   atomic.Int64
	armed   atomic.Bool
	held    chan struct{}
	lift    chan struct{}
	release func()
}

func newHoldFS(t *testing.T) *holdFS {
	h := &holdFS{FS: faultfs.OS(), held: make(chan struct{}, 1), lift: make(chan struct{})}
	h.release = sync.OnceFunc(func() { close(h.lift) })
	t.Cleanup(h.release)
	return h
}

func (h *holdFS) arm() { h.armed.Store(true) }

func (h *holdFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return holdFile{File: f, h: h}, nil
}

type holdFile struct {
	faultfs.File
	h *holdFS
}

func (f holdFile) Sync() error {
	f.h.syncs.Add(1)
	if f.h.armed.CompareAndSwap(true, false) {
		f.h.held <- struct{}{}
		<-f.h.lift
	}
	return f.File.Sync()
}

// TestStoreSyncFailureLeavesJobOpen: when the store cannot sync a finished
// run's edits, the job fails with the sync error and journals no end event,
// so the next boot re-runs it; the store's sticky error flips readiness.
func TestStoreSyncFailureLeavesJobOpen(t *testing.T) {
	// Count the file operations that opening and seeding take, then fail
	// every fsync after them.
	counter := faultfs.NewInjector(faultfs.OS())
	seeded := openFigure1Disk(t, t.TempDir(), db.WithFS(counter))
	n := counter.OpCount()
	seeded.Close()
	inj := faultfs.NewInjector(faultfs.OS(), faultfs.Fault{At: n + 1, Op: faultfs.OpAny, Kind: faultfs.KindStickySync})
	ds := openFigure1Disk(t, t.TempDir(), db.WithFS(inj))
	defer ds.Close()

	logPath := filepath.Join(t.TempDir(), "jobs.log")
	jl, _, err := wal.OpenJobLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	_, dg := dataset.Figure1()
	srv := New(ds, core.Config{})
	srv.SetJobLog(jl)
	defer srv.Close()
	job := srv.startJob(dataset.IntroQ1(), nil)
	answerUntilDone(t, srv, job.ID, crowd.NewPerfect(dg), nil)

	cur := jobView(srv, job.ID)
	if cur.State != JobFailed || !strings.Contains(cur.Error, faultfs.ErrInjected.Error()) {
		t.Fatalf("job ended %s (%q), want failed with the injected sync error", cur.State, cur.Error)
	}
	if srv.StoreError() == nil {
		t.Error("failed store sync left StoreError nil")
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"ev":"end"`) {
		t.Fatalf("end event journaled over unsynced edits:\n%s", raw)
	}
	jl2, recs, err := wal.OpenJobLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	jl2.Close()
	if len(recs) != 1 || recs[0].Done {
		t.Fatalf("journal records = %+v, want job %d open for recovery", recs, job.ID)
	}
}

// TestRepairJobJournal: a view-repair job (POST /api/v1/views/{name}/wrong|missing)
// journals its start, so the job journal reopens after it. Recover brings a
// finished repair job back in its terminal state, registers an interrupted
// one as failed (repair jobs are not resumed), and still resumes the
// unfinished cleaning job each row journals next to it. The stride row pins
// that repair jobs draw their IDs from the server's residue class.
func TestRepairJobJournal(t *testing.T) {
	for _, tc := range []struct {
		name        string
		action      string
		tuple       string
		interrupted bool // srv.Close() before the first answer
		stride      bool // SetJobIDSpace(1, 3), one cleaning job first
	}{
		{"wrong-finished", "wrong", "ESP", false, false},
		{"wrong-interrupted", "wrong", "ESP", true, false},
		{"missing-finished", "missing", "ITA", false, false},
		{"missing-interrupted", "missing", "ITA", true, false},
		{"stride", "wrong", "ESP", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.log")
			jl, _, err := wal.OpenJobLog(path)
			if err != nil {
				t.Fatal(err)
			}
			d, dg := dataset.Figure1()
			oracle := crowd.NewPerfect(dg)
			srv := New(d, core.Config{})
			srv.SetJobLog(jl)
			if tc.stride {
				srv.SetJobIDSpace(1, 3)
				clean := srv.startJob(dataset.IntroQ1(), nil)
				answerUntilDone(t, srv, clean.ID, oracle, nil)
			}
			if tc.interrupted {
				// Holding the store lock keeps the job from asking anything.
				srv.dbMu.Lock()
			}
			repair := srv.startRepairJob(dataset.IntroQ1(), db.Tuple{tc.tuple}, tc.action, nil)
			if tc.stride && repair.ID != 4 {
				t.Fatalf("repair job ID = %d after job 1 under SetJobIDSpace(1, 3), want 4", repair.ID)
			}
			want := JobFailed
			if !tc.interrupted {
				answerUntilDone(t, srv, repair.ID, oracle, nil)
				if want = jobView(srv, repair.ID).State; want != JobDone {
					t.Fatalf("repair job ended %s, want done", want)
				}
			}
			srv.Close()
			cleanID := repair.ID + 1
			if err := jl.Start(cleanID, dataset.IntroQ1().String()); err != nil {
				t.Fatal(err)
			}
			jl.Close()
			if tc.interrupted {
				srv.dbMu.Unlock()
				waitTerminal(t, srv, repair.ID)
			}

			jl2, recs, err := wal.OpenJobLog(path)
			if err != nil {
				t.Fatalf("reopening the job journal: %v", err)
			}
			d2, _ := dataset.Figure1()
			srv2 := New(d2, core.Config{})
			srv2.SetJobLog(jl2)
			resumed, err := srv2.Recover(recs)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if resumed != 1 {
				t.Errorf("Recover resumed %d jobs, want 1 (the cleaning job)", resumed)
			}
			got := jobView(srv2, repair.ID)
			if got.State != want {
				t.Errorf("repair job %d after Recover = %+v, want state %s", repair.ID, got, want)
			}
			if tc.interrupted && !strings.Contains(got.Error, "not resumed") {
				t.Errorf("interrupted repair job error %q does not say repair jobs are not resumed", got.Error)
			}
			answerUntilDone(t, srv2, cleanID, oracle, nil)
			if st := jobView(srv2, cleanID).State; st != JobDone {
				t.Errorf("resumed cleaning job ended %s, want done", st)
			}
			srv2.Close()
			jl2.Close()

			// Recover closed the repair job's record, so no later boot
			// meets it open again.
			jl3, recs, err := wal.OpenJobLog(path)
			if err != nil {
				t.Fatal(err)
			}
			jl3.Close()
			for _, r := range recs {
				if r.ID == repair.ID && (!r.Done || JobState(r.State) != want) {
					t.Errorf("repair job record after the second boot = %+v, want ended %s", r, want)
				}
			}
		})
	}
}
