package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultfs"
)

// opCountFS counts the Write and Sync calls on the files it opens.
type opCountFS struct {
	faultfs.FS
	writes, syncs atomic.Int64
}

func (c *opCountFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return opCountFile{File: f, c: c}, nil
}

type opCountFile struct {
	faultfs.File
	c *opCountFS
}

func (f opCountFile) Write(p []byte) (int, error) {
	f.c.writes.Add(1)
	return f.File.Write(p)
}

func (f opCountFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

// TestJobLogGroupAppend: a group of n answers takes n writes and one fsync,
// and ships its events in append order, each after that fsync. Cutting the
// journal at any byte of the group recovers a prefix of the group.
func TestJobLogGroupAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	fs := &opCountFS{FS: faultfs.OS()}
	l, _, err := OpenJobLog(path, WithJobLogFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	type shipment struct {
		ev    JobEvent
		syncs int64 // fsyncs done when the event shipped
	}
	var shipped []shipment
	l.SetShipper(func(ev JobEvent) { shipped = append(shipped, shipment{ev, fs.syncs.Load()}) })
	if err := l.Start(1, "(x) :- R(x)."); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// k1 twice: a key's answers keep their order within a group too.
	group := []KeyedAnswer{
		{Key: "k0", Answer: map[string]bool{"bool": true}},
		{Key: "k1", Answer: map[string]bool{"bool": false}},
		{Key: "k2", Answer: map[string]bool{"none": true}},
		{Key: "k1", Answer: map[string]bool{"bool": true}},
		{Key: "k3", Answer: map[string]bool{"bool": false}},
	}
	writes, syncs := fs.writes.Load(), fs.syncs.Load()
	if err := l.Answers(1, group); err != nil {
		t.Fatal(err)
	}
	if n := fs.writes.Load() - writes; n != int64(len(group)) {
		t.Errorf("group of %d took %d writes, want one per record", len(group), n)
	}
	if n := fs.syncs.Load() - syncs; n != 1 {
		t.Errorf("group took %d fsyncs, want 1", n)
	}
	if err := l.Answers(1, nil); err != nil {
		t.Fatal(err)
	}
	if fs.writes.Load()-writes != int64(len(group)) || fs.syncs.Load()-syncs != 1 {
		t.Error("an empty group wrote or synced")
	}
	if len(shipped) != 1+len(group) {
		t.Fatalf("shipped %d events, want %d", len(shipped), 1+len(group))
	}
	for i, ka := range group {
		s := shipped[1+i]
		if s.ev.Ev != "answer" || s.ev.Key != ka.Key {
			t.Errorf("shipped event %d = %s %q, want answer %q", i, s.ev.Ev, s.ev.Key, ka.Key)
		}
		if s.syncs != syncs+1 {
			t.Errorf("event %d shipped after %d fsyncs, want after the group's", i, s.syncs-syncs)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	grp := journal[len(before):]
	lines := strings.Split(strings.TrimSuffix(string(journal), "\n"), "\n")
	// states[i] is the journal's records after its first i lines.
	states := make([][]JobRecord, len(lines)+1)
	fold := NewFold()
	states[0] = fold.Records()
	for i, line := range lines {
		var ev JobEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if err := fold.Apply(ev); err != nil {
			t.Fatal(err)
		}
		states[i+1] = fold.Records()
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(grp); cut++ {
		torn := journal[:len(before)+cut]
		whole := strings.Count(string(torn), "\n")
		p := filepath.Join(dir, fmt.Sprintf("cut%d.log", cut))
		if err := os.WriteFile(p, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		cl, recs, err := OpenJobLog(p)
		if err != nil {
			t.Fatalf("group cut at byte %d: open failed: %v", cut, err)
		}
		cl.Close()
		// A cut just before a record's newline may keep that record too.
		ok := reflect.DeepEqual(recs, states[whole])
		if !ok && cut < len(grp) && grp[cut] == '\n' {
			ok = reflect.DeepEqual(recs, states[whole+1])
		}
		if !ok {
			t.Fatalf("group cut at byte %d: recovered %+v is not a prefix of the group", cut, recs)
		}
	}
}
