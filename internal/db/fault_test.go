package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// openFaultDisk opens a fresh disk store routed through the given injector.
func openFaultDisk(t *testing.T, dir string, inj *faultfs.Injector) (*DiskStore, error) {
	t.Helper()
	return OpenDisk(dir, testSchema(), 0, WithFS(inj))
}

func TestDiskShortWriteSticky(t *testing.T) {
	// Dry run: count the ops a clean open performs so the fault can be
	// scheduled on the first post-open write.
	dry := faultfs.NewInjector(faultfs.OS())
	dds, err := openFaultDisk(t, t.TempDir(), dry)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	dds.Close()
	openOps := dry.OpCount()

	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS(),
		faultfs.Fault{At: openOps + 1, Op: faultfs.OpWrite, Kind: faultfs.KindShortWrite, Arg: 1})
	ds, err := openFaultDisk(t, dir, inj)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer ds.Close()
	// Inserts are buffered, so the short write reaches the log at the
	// Sync that flushes them and must surface there.
	var ierr error
	for i := 0; i < 50 && ierr == nil; i++ {
		_, ierr = ds.InsertFact(NewFact("Goals", fmt.Sprintf("p%d", i), "d"))
		if ierr == nil {
			ierr = ds.Sync()
		}
	}
	if ierr == nil {
		t.Fatal("short write never surfaced")
	}
	// Sticky: every further mutation and Sync fails with the same error.
	if _, err := ds.InsertFact(NewFact("Teams", "X", "Y")); err == nil {
		t.Error("insert succeeded on a poisoned store")
	}
	if err := ds.Sync(); err == nil {
		t.Error("Sync succeeded on a poisoned store")
	}
	if ds.Err() == nil {
		t.Error("Err() = nil on a poisoned store")
	}
}

func TestDiskCrashPreservesAcked(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := []Fact{NewFact("Teams", "GER", "EU"), NewFact("Goals", "Klose", "2014")}
	for _, f := range acked {
		if _, err := ds.InsertFact(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced tail: may or may not survive, must never corrupt.
	if _, err := ds.InsertFact(NewFact("Teams", "BRA", "SA")); err != nil {
		t.Fatal(err)
	}
	ds.Crash()
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	for _, f := range acked {
		if !re.Has(f) {
			t.Errorf("acked fact %v lost after crash", f)
		}
	}
	for _, f := range re.Facts() {
		if !f.Equal(acked[0]) && !f.Equal(acked[1]) && !f.Equal(NewFact("Teams", "BRA", "SA")) {
			t.Errorf("recovery invented fact %v", f)
		}
	}
}

func TestDiskMidFileCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ds.InsertFact(NewFact("Teams", string(rune('a'+i)), "EU")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, diskLogFile)
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the middle of the file: a complete-but-invalid record.
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(log, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDisk(dir, testSchema(), 0)
	if err == nil {
		t.Fatal("open succeeded over mid-file corruption")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open error = %v, want ErrCorrupt", err)
	}
	var cerr *CorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("open error type = %T, want *CorruptError", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineFile)); err != nil {
		t.Errorf("QUARANTINE marker missing: %v", err)
	}
	if cerr.Quarantined == "" {
		t.Errorf("corrupt file was not moved aside: %+v", cerr)
	} else if _, err := os.Stat(cerr.Quarantined); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	// Sticky: the second open fails too, even though the corrupt file moved.
	_, err = OpenDisk(dir, testSchema(), 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("second open = %v, want ErrCorrupt (sticky quarantine)", err)
	}
	// Operator clears the marker: the store opens again (without the
	// quarantined log's facts — it refuses to invent them, not to serve).
	if err := os.Remove(filepath.Join(dir, quarantineFile)); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("open after clearing marker: %v", err)
	}
	defer re.Close()
	if got := re.Stats().QuarantinedFiles; got != 1 {
		t.Errorf("QuarantinedFiles = %d, want 1", got)
	}
}

func TestDiskMetaChecksumFlip(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, diskMetaFile)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	// Claim the sharded v2 layout under the v3 checksum: still valid JSON,
	// but it would send the open down the migration path.
	tampered := []byte(strings.Replace(string(raw), `"version":3`, `"version":2,"shards":4`, 1))
	if string(tampered) == string(raw) {
		t.Fatalf("store.json %s holds no version 3", raw)
	}
	if err := os.WriteFile(metaPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDisk(dir, testSchema(), 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with tampered metadata = %v, want ErrCorrupt", err)
	}
}

// TestDiskV1Compat: a v1 store migrates to the log on open and then
// compacts and reopens like any other store.
func TestDiskV1Compat(t *testing.T) {
	dir := copyFixture(t, "v1-2shards")
	want := fixtureFacts(t, "v1-2shards")
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("open v1 store: %v", err)
	}
	if got := re.Stats().FormatVersion; got != formatVersion {
		t.Errorf("FormatVersion = %d, want %d", got, formatVersion)
	}
	if !Equal(re, want) {
		t.Fatalf("v1 store opened %d facts away from the recorded ones", Distance(re, want))
	}
	f := want.Facts()[0]
	if _, err := re.DeleteFact(f); err != nil {
		t.Fatal(err)
	}
	want.DeleteFact(f)
	res, err := re.Compact(0)
	if err != nil {
		t.Fatalf("Compact after migration: %v", err)
	}
	if res.RecordsDropped != 2 {
		t.Errorf("Compact after migration = %+v, want the delete and its insert dropped", res)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer re2.Close()
	if !Equal(re2, want) {
		t.Errorf("post-compaction reopen is %d facts away", Distance(re2, want))
	}
}

func TestCompactBasic(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	seeded := seedFacts(t, ds, 42, 200)
	// Dedupe (seedFacts may repeat), then delete half to accrete tombstones.
	var facts []Fact
	seen := map[string]bool{}
	for _, f := range seeded {
		if !seen[f.Key()] {
			seen[f.Key()] = true
			facts = append(facts, f)
		}
	}
	kept := map[string]bool{}
	for i, f := range facts {
		if i%2 == 0 {
			if _, err := ds.DeleteFact(f); err != nil {
				t.Fatal(err)
			}
		} else {
			kept[f.Rel+"\x00"+f.Args.Key()] = true
		}
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}
	before := ds.Stats()
	if before.GarbageRatio <= 0 {
		t.Fatalf("GarbageRatio = %v before compaction, want > 0", before.GarbageRatio)
	}
	res, err := ds.Compact(0)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.RecordsDropped == 0 {
		t.Fatalf("Compact result = %+v, want work done", res)
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Errorf("BytesAfter %d >= BytesBefore %d", res.BytesAfter, res.BytesBefore)
	}
	after := ds.Stats()
	if after.GarbageRatio != 0 {
		t.Errorf("GarbageRatio = %v after full compaction, want 0", after.GarbageRatio)
	}
	if after.CompactionRuns != 1 {
		t.Errorf("CompactionRuns = %d, want 1", after.CompactionRuns)
	}
	if after.CompactionReclaimedBytes <= 0 {
		t.Errorf("CompactionReclaimedBytes = %d, want > 0", after.CompactionReclaimedBytes)
	}
	// Compaction is invisible to readers: same facts, same generation.
	if after.Generation != before.Generation {
		t.Errorf("generation changed across compaction: %d -> %d", before.Generation, after.Generation)
	}
	// The store stays writable and reopens to the same facts.
	extra := NewFact("Teams", "post-compact", "EU")
	if _, err := ds.InsertFact(extra); err != nil {
		t.Fatalf("insert after compaction: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer re.Close()
	got := re.Facts()
	if len(got) != len(kept)+1 {
		t.Fatalf("Len after reopen = %d, want %d", len(got), len(kept)+1)
	}
	for _, f := range got {
		if !kept[f.Rel+"\x00"+f.Args.Key()] && !f.Equal(extra) {
			t.Errorf("unexpected fact after compaction: %v", f)
		}
	}
}

func TestCompactThreshold(t *testing.T) {
	ds, _ := openTestDisk(t)
	f := NewFact("Teams", "A", "B")
	if _, err := ds.InsertFact(f); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DeleteFact(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ds.InsertFact(NewFact("Teams", string(rune('a'+i)), "EU")); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage ratio is 2/12 ≈ 0.17 — below a 0.5 threshold, nothing runs.
	res, err := ds.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res != (CompactionResult{}) {
		t.Errorf("Compact(0.5) = %+v, want no rewrite", res)
	}
	res, err = ds.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsDropped != 2 || res.BytesAfter >= res.BytesBefore {
		t.Errorf("Compact(0) = %+v, want 2 records dropped and fewer bytes", res)
	}
}

// TestCompactCrashSweep injects a crash at every file operation a compaction
// performs and proves each outcome reopens to exactly the live facts.
func TestCompactCrashSweep(t *testing.T) {
	build := func(t *testing.T, dir string) map[string]bool {
		t.Helper()
		ds, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]bool{}
		for i := 0; i < 12; i++ {
			f := NewFact("Teams", string(rune('a'+i)), "EU")
			if _, err := ds.InsertFact(f); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if _, err := ds.DeleteFact(f); err != nil {
					t.Fatal(err)
				}
			} else {
				live[f.Args.Key()] = true
			}
		}
		if err := ds.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		return live
	}

	// Dry run: count the ops a clean open + compact + close performs.
	dryDir := t.TempDir()
	build(t, dryDir)
	counter := faultfs.NewInjector(faultfs.OS())
	ds, err := OpenDisk(dryDir, testSchema(), 0, WithFS(counter))
	if err != nil {
		t.Fatal(err)
	}
	openOps := counter.OpCount()
	if _, err := ds.Compact(0); err != nil {
		t.Fatal(err)
	}
	compactOps := counter.OpCount() - openOps
	ds.Close()
	if compactOps < 3 {
		t.Fatalf("compaction performed only %d counted ops", compactOps)
	}

	for p := int64(1); p <= compactOps; p++ {
		dir := t.TempDir()
		live := build(t, dir)
		inj := faultfs.NewInjector(faultfs.OS(),
			faultfs.Fault{At: openOps + p, Kind: faultfs.KindCrash})
		ds, err := OpenDisk(dir, testSchema(), 0, WithFS(inj))
		if err != nil {
			t.Fatalf("point %d: open: %v", p, err)
		}
		_, cerr := ds.Compact(0)
		if inj.OpCount() < openOps+p { // the crash is the (openOps+p)th counted op
			ds.Close()
			t.Fatalf("point %d: fault never fired", p)
		}
		_ = cerr // a crash-torn write reports success; later ops fail
		ds.Crash()
		re, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatalf("point %d: reopen after crash: %v", p, err)
		}
		got := map[string]bool{}
		for _, f := range re.Facts() {
			got[f.Args.Key()] = true
		}
		re.Close()
		if len(got) != len(live) {
			t.Fatalf("point %d: %d facts after crash, want %d", p, len(got), len(live))
		}
		for k := range live {
			if !got[k] {
				t.Fatalf("point %d: live fact %q lost", p, k)
			}
		}
	}
}

// TestStatsSegments: Stats reports the log's format and its store-level
// garbage ratio, dead fact records over all fact records.
func TestStatsSegments(t *testing.T) {
	ds, _ := openTestDisk(t)
	f := NewFact("Teams", "A", "B")
	if _, err := ds.InsertFact(f); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DeleteFact(f); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.InsertFact(NewFact("Goals", "p", "d")); err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.FormatVersion != formatVersion {
		t.Errorf("FormatVersion = %d, want %d", st.FormatVersion, formatVersion)
	}
	if ds.records != 3 || st.TotalFacts != 1 {
		t.Errorf("records, facts = %d, %d; want 3, 1", ds.records, st.TotalFacts)
	}
	if st.GarbageRatio != 2.0/3 {
		t.Errorf("GarbageRatio = %v, want 2/3", st.GarbageRatio)
	}
}

// TestDiskFaultSweepSmoke runs a compact version of the harness pattern
// (internal/check.CheckDiskFaults is the full-width property): inject a
// crash at every op index of a scripted run and prove acked facts survive.
func TestDiskFaultSweepSmoke(t *testing.T) {
	script := func(ds *DiskStore) (acked []Fact, err error) {
		all := []Fact{
			NewFact("Teams", "GER", "EU"), NewFact("Teams", "BRA", "SA"),
			NewFact("Goals", "Klose", "2014"), NewFact("Goals", "Pele", "1970"),
		}
		for i, f := range all {
			if _, err := ds.InsertFact(f); err != nil {
				return acked, err
			}
			if i%2 == 1 {
				if err := ds.Sync(); err != nil {
					return acked, err
				}
				acked = all[:i+1]
			}
		}
		return acked, nil
	}
	// Count ops in a clean run.
	dry := faultfs.NewInjector(faultfs.OS())
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0, WithFS(dry))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := script(ds); err != nil {
		t.Fatal(err)
	}
	ds.Crash()
	total := dry.OpCount()
	for p := int64(1); p <= total; p++ {
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS(), faultfs.Fault{At: p, Kind: faultfs.KindCrash})
		ds, err := OpenDisk(dir, testSchema(), 0, WithFS(inj))
		if err != nil {
			continue // crash during open: nothing acked, nothing to check
		}
		acked, _ := script(ds)
		ds.Crash()
		re, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatalf("point %d: reopen: %v", p, err)
		}
		for _, f := range acked {
			if !re.Has(f) {
				t.Errorf("point %d: acked fact %v lost", p, f)
			}
		}
		re.Close()
	}
}
