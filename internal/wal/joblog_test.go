package wal

import (
	"os"
	"path/filepath"
	"testing"
)

func TestJobLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, recs, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d jobs", len(recs))
	}
	type answer struct {
		Bool bool `json:"bool"`
	}
	if err := l.Start(1, "(x) :- Teams(x, EU)"); err != nil {
		t.Fatal(err)
	}
	if err := l.Answers(1, []KeyedAnswer{{Key: "k1", Answer: answer{Bool: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Answers(1, []KeyedAnswer{{Key: "k1", Answer: answer{Bool: false}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Answers(1, []KeyedAnswer{{Key: "k2", Answer: answer{Bool: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Start(2, "(y) :- Goals(y, d)"); err != nil {
		t.Fatal(err)
	}
	if err := l.End(2, "done"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs2, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs2) != 2 {
		t.Fatalf("reopened log has %d jobs, want 2", len(recs2))
	}
	j1, j2 := recs2[0], recs2[1]
	if j1.ID != 1 || j1.Query != "(x) :- Teams(x, EU)" || j1.Done {
		t.Errorf("job 1 record = %+v", j1)
	}
	if len(j1.Answers["k1"]) != 2 || len(j1.Answers["k2"]) != 1 {
		t.Errorf("job 1 answers = %v", j1.Answers)
	}
	// FIFO order per key survives the round trip.
	if string(j1.Answers["k1"][0]) != `{"bool":true}` || string(j1.Answers["k1"][1]) != `{"bool":false}` {
		t.Errorf("k1 answers out of order: %s, %s", j1.Answers["k1"][0], j1.Answers["k1"][1])
	}
	if j2.ID != 2 || !j2.Done || j2.State != "done" {
		t.Errorf("job 2 record = %+v", j2)
	}
}

func TestJobLogTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, _, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Start(1, "(x) :- Teams(x, EU)")
	l.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"ev":"answer","job":1,"key":"k`)
	f.Close()

	l2, recs, err := OpenJobLog(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer l2.Close()
	if len(recs) != 1 || recs[0].ID != 1 || len(recs[0].Answers) != 0 {
		t.Errorf("records = %+v, want job 1 with no answers", recs)
	}
	// The log stays appendable after recovery.
	if err := l2.Answers(1, []KeyedAnswer{{Key: "k", Answer: map[string]bool{"none": true}}}); err != nil {
		t.Errorf("append after torn-tail recovery: %v", err)
	}
}

func TestJobLogUnknownJobFatal(t *testing.T) {
	// An intact answer event for a job with no start record is corruption even
	// in tail position — unlike a torn line, the record decoded fine.
	path := filepath.Join(t.TempDir(), "jobs.log")
	os.WriteFile(path, []byte(`{"ev":"answer","job":9,"key":"k","answer":{}}`+"\n"), 0o644)
	if _, _, err := OpenJobLog(path); err == nil {
		t.Errorf("answer for unknown job should fail replay")
	}
	os.WriteFile(path, []byte(`{"ev":"end","job":9,"state":"done"}`+"\n"), 0o644)
	if _, _, err := OpenJobLog(path); err == nil {
		t.Errorf("end for unknown job should fail replay")
	}
	os.WriteFile(path, []byte(`{"ev":"bogus","job":1}`+"\n{\"ev\":\"start\",\"job\":1}\n"), 0o644)
	if _, _, err := OpenJobLog(path); err == nil {
		t.Errorf("unknown event followed by more records should fail replay")
	}
}

func TestJobLogStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, _, err := OpenJobLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// Yank the file out from under the log to force append failures.
	l.f.Close()
	if err := l.Start(1, "q"); err == nil {
		t.Fatal("append to closed log succeeded")
	}
	first := l.Err()
	if first == nil {
		t.Fatal("append failure not recorded")
	}
	if err := l.Answers(1, []KeyedAnswer{{Key: "k", Answer: map[string]bool{}}}); err != first {
		t.Errorf("later append error = %v, want sticky %v", err, first)
	}
	if err := l.Close(); err != first {
		t.Errorf("Close error = %v, want sticky %v", err, first)
	}
}
