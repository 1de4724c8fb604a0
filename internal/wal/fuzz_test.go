package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzJobLogReplay feeds arbitrary bytes to the job journal: OpenJobLog must
// never panic, failures must be typed, and a successful open must be stable
// across a reopen (the returned records are identical).
func FuzzJobLogReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"ev":"start","job":1,"query":"(x) :- R(x)"}` + "\n"))
	f.Add([]byte(`{"ev":"start","job":1,"query":"q"}` + "\n" + `{"ev":"answer","job":1,"key":"k","answer":{"none":true}}` + "\n"))
	f.Add([]byte(`{"ev":"start","job":1,"query":"q"}` + "\n" + `{"ev":"end","job":1,"state":"done"}` + "\n"))
	f.Add([]byte(`{"ev":"answer","job":9,"key":"k","answer":{}}` + "\n"))
	f.Add([]byte(`{"ev":"seq","job":7}` + "\n"))
	f.Add([]byte(`{"ev":"start","job":1,"qu`))
	f.Fuzz(func(t *testing.T, journal []byte) {
		path := filepath.Join(t.TempDir(), "jobs.log")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Skip()
		}
		l, recs, err := OpenJobLog(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "wal:") {
				t.Fatalf("unclassified job log error: %v", err)
			}
			return
		}
		l.Close()
		l2, recs2, err := OpenJobLog(path)
		if err != nil {
			t.Fatalf("reopen after successful open failed: %v", err)
		}
		defer l2.Close()
		if len(recs) != len(recs2) {
			t.Fatalf("job log replay not deterministic: %d vs %d records", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i].ID != recs2[i].ID || recs[i].Done != recs2[i].Done ||
				recs[i].State != recs2[i].State || recs[i].Query != recs2[i].Query ||
				len(recs[i].Answers) != len(recs2[i].Answers) {
				t.Fatalf("job record %d differs across reopen: %+v vs %+v", i, recs[i], recs2[i])
			}
		}
	})
}

// FuzzReplicaLogReplay does the same for a replica's copy of a peer journal:
// OpenReplicaLog must never panic, failures must be typed, and a successful
// open must reopen to the same sender cursor and the same folded jobs.
func FuzzReplicaLogReplay(f *testing.F) {
	snapshot := `{"event":{"ev":"start","job":1,"query":"q"}}` + "\n" +
		`{"event":{"ev":"answer","job":1,"key":"k","answer":{"bool":true}}}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(snapshot + `{"boot":"b","seq":3}` + "\n"))
	f.Add([]byte(snapshot + `{"boot":"b","seq":3}` + "\n" +
		`{"boot":"b","seq":4,"event":{"ev":"end","job":1,"state":"done"}}` + "\n"))
	f.Add([]byte(snapshot + `{"event":{"ev":"end","job":1,"state":"handoff"}}` + "\n"))
	f.Add([]byte(snapshot + `{"event":{"ev":"end","jo`)) // torn snapshot: no cursor line
	f.Add([]byte(`{"boot":"b","seq":1,"event":{"ev":"answer","job":9,"key":"k","answer":{}}}` + "\n"))
	f.Add([]byte(`{"boot":"b","seq":1,"event":{"ev":"?","job":1}}` + "\n"))
	f.Fuzz(func(t *testing.T, journal []byte) {
		path := filepath.Join(t.TempDir(), "replica.log")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Skip()
		}
		rl, err := OpenReplicaLog(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "wal:") {
				t.Fatalf("unclassified replica log error: %v", err)
			}
			return
		}
		boot, seq := rl.State()
		jobs := rl.Jobs()
		rl.Close()
		rl2, err := OpenReplicaLog(path)
		if err != nil {
			t.Fatalf("reopen after successful open failed: %v", err)
		}
		defer rl2.Close()
		if boot2, seq2 := rl2.State(); boot2 != boot || seq2 != seq {
			t.Fatalf("cursor differs across reopen: (%q, %d) vs (%q, %d)", boot, seq, boot2, seq2)
		}
		if jobs2 := rl2.Jobs(); !reflect.DeepEqual(jobs, jobs2) {
			t.Fatalf("folded jobs differ across reopen: %+v vs %+v", jobs, jobs2)
		}
	})
}
