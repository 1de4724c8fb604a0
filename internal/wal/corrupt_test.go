package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeJobLog writes raw journal content to a fresh job-log path.
func writeJobLog(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.log")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const startLine = `{"ev":"start","job":1,"query":"(x) :- R(x)"}`

// TestCorruptErrorTyped: corruption anywhere in the journal surfaces as a
// *CorruptError matching ErrCorrupt, carrying the offending line number.
func TestCorruptErrorTyped(t *testing.T) {
	path := writeJobLog(t,
		startLine+"\n"+
			`{"ev":"answer","job":1,"ke`+"\n"+ // truncated mid-file record
			`{"ev":"end","job":1,"state":"done"}`+"\n")
	_, _, err := OpenJobLog(path)
	if err == nil {
		t.Fatal("mid-file truncation should fail replay")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v (%T) does not match ErrCorrupt", err, err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (%T) is not a *CorruptError", err, err)
	}
	if ce.Line != 2 {
		t.Errorf("CorruptError.Line = %d, want 2", ce.Line)
	}
}

// TestCorruptMiddleRejected: a line that is not JSON at all, followed by
// intact records, is corruption rather than a torn tail.
func TestCorruptMiddleRejected(t *testing.T) {
	path := writeJobLog(t, "garbage not json\n"+startLine+"\n")
	if _, _, err := OpenJobLog(path); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt journal middle: error %v, want ErrCorrupt", err)
	}
}

// TestDecodableBadRecordInTailIsCorruption is the regression for the silent
// tail-drop bug: a record that decodes as complete JSON but carries an
// invalid payload cannot be the prefix left by a torn write (no prefix of a
// JSON object is valid JSON), so it must fail replay even as the last line.
// A job-log line's op is its "ev" field; its args are the job ID and payload.
func TestDecodableBadRecordInTailIsCorruption(t *testing.T) {
	cases := []struct {
		name string
		tail string
	}{
		{"bad-op", `{"ev":"?","job":1}`},
		{"wrong-op-type", `{"ev":5,"job":1}`},
		{"wrong-args-type", `{"ev":"answer","job":"1","key":"k","answer":{}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeJobLog(t, startLine+"\n"+c.tail+"\n")
			_, _, err := OpenJobLog(path)
			if err == nil {
				t.Fatal("decodable bad record in tail position silently dropped")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not match ErrCorrupt", err)
			}
		})
	}
}

// TestSyntacticTornTailStillTolerated: the flip side — a strict JSON-syntax
// failure on the last line remains a tolerated torn tail.
func TestSyntacticTornTailStillTolerated(t *testing.T) {
	for _, tail := range []string{
		`{"ev":"answer","job":1,"ke`,
		`{"ev":"answer"`,
		`{`,
		`garbage`,
	} {
		l, recs, err := OpenJobLog(writeJobLog(t, startLine+"\n"+tail))
		if err != nil {
			t.Fatalf("torn tail %q should be tolerated: %v", tail, err)
		}
		if len(recs) != 1 || len(recs[0].Answers) != 0 {
			t.Errorf("torn tail %q: records = %+v, want job 1 with no answers", tail, recs)
		}
		l.Close()
	}
}

// TestJobLogBadEventInTailIsCorruption: an intact event with an unknown "ev"
// in last position is corruption, not a torn tail.
func TestJobLogBadEventInTailIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	content := `{"ev":"start","job":1,"query":"(x) :- R(x)"}` + "\n" +
		`{"ev":"bogus","job":1}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenJobLog(path)
	if err == nil {
		t.Fatal("bad job event in tail position silently dropped")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not match ErrCorrupt", err)
	}
}

// TestCrashAtEveryPrefix is the torn-write property test: for a journal
// truncated at every possible byte offset — any crash point during an append
// — reopening must recover exactly the records whose lines survived intact
// and treat at most one trailing partial line as a torn tail. No offset may
// produce an error or a state outside the clean-prefix family.
func TestCrashAtEveryPrefix(t *testing.T) {
	// Produce the journal bytes through the log itself.
	src := filepath.Join(t.TempDir(), "jobs.log")
	l, _, err := OpenJobLog(src)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Start(1, "(x) :- Teams(x, EU)"))
	must(l.Answers(1, []KeyedAnswer{{Key: "k1", Answer: map[string]bool{"bool": true}}}))
	must(l.Start(2, "(y) :- Goals(y, d)"))
	must(l.Answers(1, []KeyedAnswer{{Key: "k1", Answer: map[string]bool{"bool": false}}}))
	must(l.Answers(2, []KeyedAnswer{{Key: "k2", Answer: map[string]bool{"none": true}}}))
	must(l.End(1, "done"))
	must(l.Close())
	journal, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	// Expected records after each count of surviving whole lines.
	lines := strings.Split(strings.TrimSuffix(string(journal), "\n"), "\n")
	states := make([][]JobRecord, len(lines)+1)
	fold := NewFold()
	states[0] = fold.Records()
	for i, line := range lines {
		var ev JobEvent
		must(json.Unmarshal([]byte(line), &ev))
		must(fold.Apply(ev))
		states[i+1] = fold.Records()
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(journal); cut++ {
		prefix := journal[:cut]
		whole := strings.Count(string(prefix), "\n")
		path := filepath.Join(dir, fmt.Sprintf("cut%d.log", cut))
		must(os.WriteFile(path, prefix, 0o644))
		cl, recs, err := OpenJobLog(path)
		if err != nil {
			t.Fatalf("cut at byte %d: open failed: %v", cut, err)
		}
		cl.Close()
		// A cut just before a newline leaves the final record complete except
		// for its line terminator; recovering it too is a (one longer) clean
		// prefix, not corruption.
		ok := reflect.DeepEqual(recs, states[whole])
		if !ok && cut < len(journal) && journal[cut] == '\n' {
			ok = reflect.DeepEqual(recs, states[whole+1])
		}
		if !ok {
			t.Fatalf("cut at byte %d: recovered %+v is not a clean %d- or %d-line prefix", cut, recs, whole, whole+1)
		}
	}
}

// TestOpenBadDir: a journal path that cannot exist fails to open with an
// error instead of being treated as an empty journal.
func TestOpenBadDir(t *testing.T) {
	// A file where the journal's directory should be.
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, []byte("file"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := []string{filepath.Join(occupied, "jobs.log"), strings.Repeat("x", 5) + "\x00bad"}
	for _, path := range bad {
		if _, _, err := OpenJobLog(path); err == nil {
			t.Errorf("OpenJobLog(%q) succeeded", path)
		}
		if _, err := OpenReplicaLog(path); err == nil {
			t.Errorf("OpenReplicaLog(%q) succeeded", path)
		}
	}
}
