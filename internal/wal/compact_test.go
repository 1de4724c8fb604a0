package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJobLogCompaction: opening with WithCompaction drops terminal jobs from
// the file while still returning them from the pre-compaction scan, keeps
// unfinished jobs replayable, and preserves the job-ID high-water mark
// through a seq record.
func TestJobLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, _, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Start(1, "q1(x) :- R(x)"))
	must(l.Answers(1, []KeyedAnswer{{Key: "k1", Answer: map[string]bool{"ok": true}}}))
	must(l.End(1, "done"))
	must(l.Start(2, "q2(x) :- S(x)"))
	must(l.Answers(2, []KeyedAnswer{{Key: "k2", Answer: map[string]bool{"ok": false}}}))
	must(l.Start(3, "q3(x) :- T(x)"))
	must(l.End(3, "degraded"))
	must(l.Close())

	// Compacting open: every job is still reported, so recovery can
	// re-register the finished ones.
	l2, recs, err := OpenJobLog(path, WithCompaction())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("compacting open returned %d jobs, want all 3", len(recs))
	}
	if got := l2.MaxJob(); got != 3 {
		t.Errorf("MaxJob = %d, want 3", got)
	}
	// The log stays appendable after the rewrite.
	must(l2.Start(4, "q4(x) :- U(x)"))
	must(l2.Close())

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, dropped := range []string{"q1(x)", "q3(x)", `"end"`} {
		if strings.Contains(string(raw), dropped) {
			t.Errorf("compacted journal still contains %s:\n%s", dropped, raw)
		}
	}

	// Plain reopen: only the live jobs remain, the answers replay, and the
	// ID floor survived the dropped records.
	l3, recs2, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(recs2) != 2 {
		t.Fatalf("post-compaction journal has %d jobs, want 2 (live only): %+v", len(recs2), recs2)
	}
	if recs2[0].ID != 2 || recs2[1].ID != 4 {
		t.Errorf("post-compaction job IDs = %d,%d, want 2,4", recs2[0].ID, recs2[1].ID)
	}
	if len(recs2[0].Answers["k2"]) != 1 {
		t.Errorf("job 2 lost its journaled answer through compaction: %+v", recs2[0].Answers)
	}
	if got := l3.MaxJob(); got != 4 {
		t.Errorf("MaxJob after compaction = %d, want 4 (floor must survive dropped jobs)", got)
	}
}

// TestJobLogCompactionNoTerminal: with nothing to drop the journal is left
// untouched (no seq record, no rewrite).
func TestJobLogCompactionNoTerminal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, _, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(1, "q(x) :- R(x)"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	l2, recs, err := OpenJobLog(path, WithCompaction())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(recs))
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Errorf("journal rewritten with nothing to compact:\nbefore %s\nafter  %s", before, after)
	}
}
