package wal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestJobLogShipper proves the shipper hook sees exactly the durably-appended
// events, in order.
func TestJobLogShipper(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := OpenJobLog(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	var shipped []JobEvent
	jl.SetShipper(func(ev JobEvent) { shipped = append(shipped, ev) })
	if err := jl.Start(1, "(x) :- R(x)."); err != nil {
		t.Fatal(err)
	}
	if err := jl.Answers(1, []KeyedAnswer{{Key: "k1", Answer: map[string]bool{"none": true}}}); err != nil {
		t.Fatal(err)
	}
	if err := jl.End(1, "done"); err != nil {
		t.Fatal(err)
	}
	if len(shipped) != 3 {
		t.Fatalf("shipped %d events, want 3: %+v", len(shipped), shipped)
	}
	if shipped[0].Ev != "start" || shipped[1].Ev != "answer" || shipped[2].Ev != "end" {
		t.Fatalf("wrong event order: %+v", shipped)
	}
	if shipped[1].Key != "k1" {
		t.Fatalf("answer key = %q, want k1", shipped[1].Key)
	}
}

// TestReplicaLogOrdering drives the ship/ack protocol: in-order appends are
// accepted, duplicates are acknowledged idempotently, and gaps or unknown
// boots are rejected until a Reset installs the sender's full state.
func TestReplicaLogOrdering(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.log")
	rl, err := OpenReplicaLog(path)
	if err != nil {
		t.Fatal(err)
	}

	start := JobEvent{Ev: "start", Job: 1, Query: "(x) :- R(x)."}
	answer := JobEvent{Ev: "answer", Job: 1, Key: "k", Answer: json.RawMessage(`{"none":true}`)}

	// A fresh log has no boot: even seq 1 must be rejected, forcing a sync.
	if ok, _ := rl.Append("b1", 1, start); ok {
		t.Fatal("fresh log accepted an append without a Reset")
	}
	if err := rl.Reset("b1", 0, nil); err != nil {
		t.Fatal(err)
	}
	if ok, err := rl.Append("b1", 1, start); !ok || err != nil {
		t.Fatalf("seq 1 after reset: ok=%v err=%v", ok, err)
	}
	// Duplicate delivery: acknowledged, not re-folded.
	if ok, err := rl.Append("b1", 1, start); !ok || err != nil {
		t.Fatalf("duplicate seq: ok=%v err=%v", ok, err)
	}
	// Gap: rejected.
	if ok, _ := rl.Append("b1", 3, answer); ok {
		t.Fatal("accepted a gapped seq")
	}
	// Unknown boot (sender restarted): rejected.
	if ok, _ := rl.Append("b2", 1, answer); ok {
		t.Fatal("accepted an unknown boot")
	}
	if ok, err := rl.Append("b1", 2, answer); !ok || err != nil {
		t.Fatalf("seq 2: ok=%v err=%v", ok, err)
	}

	jobs := rl.Jobs()
	if len(jobs) != 1 || jobs[0].ID != 1 || len(jobs[0].Answers["k"]) != 1 {
		t.Fatalf("fold = %+v", jobs)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: cursor and fold survive.
	rl2, err := OpenReplicaLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rl2.Close()
	boot, seq := rl2.State()
	if boot != "b1" || seq != 2 {
		t.Fatalf("reopened cursor = (%s, %d), want (b1, 2)", boot, seq)
	}
	if jobs := rl2.Jobs(); len(jobs) != 1 || len(jobs[0].Answers["k"]) != 1 {
		t.Fatalf("reopened fold = %+v", jobs)
	}
}

// TestReplicaLogResetAndCloseout proves Reset installs a snapshot atomically
// and Closeout marks adopted jobs terminal without advancing the cursor.
func TestReplicaLogResetAndCloseout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.log")
	rl, err := OpenReplicaLog(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []JobRecord{
		{ID: 3, Query: "(x) :- R(x).", Answers: map[string][]json.RawMessage{
			"k1": {json.RawMessage(`{"bool":true}`)},
			"k2": {json.RawMessage(`{"none":true}`), json.RawMessage(`{"bool":false}`)},
		}},
		{ID: 7, Query: "(y) :- S(y).", Answers: map[string][]json.RawMessage{}, Done: true, State: "done"},
	}
	if err := rl.Reset("boot-a", 9, jobs); err != nil {
		t.Fatal(err)
	}
	got := rl.Jobs()
	if !reflect.DeepEqual(got, jobs) {
		t.Fatalf("fold after reset = %+v, want %+v", got, jobs)
	}
	if boot, seq := rl.State(); boot != "boot-a" || seq != 9 {
		t.Fatalf("cursor = (%s, %d), want (boot-a, 9)", boot, seq)
	}
	if err := rl.Closeout(3, "handoff"); err != nil {
		t.Fatal(err)
	}
	if boot, seq := rl.State(); boot != "boot-a" || seq != 9 {
		t.Fatalf("closeout moved the cursor to (%s, %d)", boot, seq)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	rl2, err := OpenReplicaLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rl2.Close()
	got = rl2.Jobs()
	if len(got) != 2 || !got[0].Done || got[0].State != "handoff" {
		t.Fatalf("reopened fold after closeout = %+v", got)
	}
}

// TestReplicaLogTornTail proves a torn final line (crash mid-append) is
// discarded and the cursor rolls back to the last durable event, so the
// sender's retry of the torn seq is accepted in order.
func TestReplicaLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.log")
	rl, err := OpenReplicaLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Reset("b", 0, nil); err != nil {
		t.Fatal(err)
	}
	if ok, err := rl.Append("b", 1, JobEvent{Ev: "start", Job: 1, Query: "q"}); !ok || err != nil {
		t.Fatalf("append: ok=%v err=%v", ok, err)
	}
	rl.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"boot":"b","seq":2,"event":{"ev":"ans`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rl2, err := OpenReplicaLog(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer rl2.Close()
	if boot, seq := rl2.State(); boot != "b" || seq != 1 {
		t.Fatalf("cursor after torn tail = (%s, %d), want (b, 1)", boot, seq)
	}
	if ok, err := rl2.Append("b", 2, JobEvent{Ev: "end", Job: 1, State: "done"}); !ok || err != nil {
		t.Fatalf("retry of torn seq: ok=%v err=%v", ok, err)
	}
}
