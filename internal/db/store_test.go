package db

import (
	"encoding/csv"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// openTestDisk opens a disk store in a fresh temp dir and registers cleanup.
func openTestDisk(t *testing.T) (*DiskStore, string) {
	t.Helper()
	dir := t.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, dir
}

// seedFacts inserts n deterministic pseudo-random facts and returns them.
func seedFacts(t *testing.T, s Store, seed int64, n int) []Fact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Include awkward values: empty strings, separators, control bytes,
	// quotes, unicode. The key separators 0x1e and 0x1f are reserved
	// (ErrReservedByte), so the control byte is 0x1d.
	vals := []string{"", "a;b", "a\\", "v w", "'", "日本", "x\x1dy"}
	var out []Fact
	for i := 0; i < n; i++ {
		var f Fact
		if rng.Intn(2) == 0 {
			f = NewFact("Teams", fmt.Sprintf("t%d", rng.Intn(n)), vals[rng.Intn(len(vals))])
		} else {
			f = NewFact("Goals", vals[rng.Intn(len(vals))], fmt.Sprintf("d%d", rng.Intn(n)))
		}
		if _, err := s.InsertFact(f); err != nil {
			t.Fatalf("InsertFact(%v): %v", f, err)
		}
		out = append(out, f)
	}
	return out
}

func TestDiskStoreBasics(t *testing.T) {
	ds, _ := openTestDisk(t)
	f := NewFact("Teams", "GER", "EU")
	if ch, err := ds.InsertFact(f); err != nil || !ch {
		t.Fatalf("InsertFact = %v, %v", ch, err)
	}
	if !ds.Has(f) {
		t.Errorf("Has = false after insert")
	}
	if ch, err := ds.InsertFact(f); err != nil || ch {
		t.Errorf("duplicate insert = %v, %v; want false, nil", ch, err)
	}
	if g := ds.Generation(); g != 1 {
		t.Errorf("Generation = %d after one effective edit, want 1", g)
	}
	if ch, err := ds.DeleteFact(f); err != nil || !ch {
		t.Errorf("DeleteFact = %v, %v", ch, err)
	}
	if ds.Has(f) {
		t.Errorf("fact present after delete")
	}
	if _, err := ds.InsertFact(NewFact("Nope", "x")); err == nil {
		t.Errorf("insert into unknown relation: want error")
	}
	if _, err := ds.InsertFact(NewFact("Teams", "only-one")); err == nil {
		t.Errorf("arity mismatch: want error")
	}
	if r := ds.Rel("Nope"); r != nil {
		t.Errorf("Rel(unknown) = %v, want nil", r)
	}
}

func TestDiskMemParity(t *testing.T) {
	ds, _ := openTestDisk(t)
	md := New(testSchema())
	rng := rand.New(rand.NewSource(7))
	vals := []string{"", "a;b", "a\\", "v w", "'", "日本"}
	for i := 0; i < 500; i++ {
		var f Fact
		if rng.Intn(2) == 0 {
			f = NewFact("Teams", vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		} else {
			f = NewFact("Goals", fmt.Sprintf("p%d", rng.Intn(20)), vals[rng.Intn(len(vals))])
		}
		var e Edit
		if rng.Intn(4) == 0 {
			e = Deletion(f)
		} else {
			e = Insertion(f)
		}
		ch1, err1 := ds.Apply(e)
		ch2, err2 := md.Apply(e)
		if ch1 != ch2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("edit %v: disk (%v, %v) vs mem (%v, %v)", e, ch1, err1, ch2, err2)
		}
	}
	if !Equal(ds, md) {
		t.Fatalf("disk and mem stores diverged: distance %d", Distance(ds, md))
	}
	// Facts() must be byte-identical (deterministic order).
	df, mf := ds.Facts(), md.Facts()
	if len(df) != len(mf) {
		t.Fatalf("Facts length: disk %d, mem %d", len(df), len(mf))
	}
	for i := range df {
		if df[i].Rel != mf[i].Rel || !df[i].Args.Equal(mf[i].Args) {
			t.Fatalf("Facts[%d]: disk %v, mem %v", i, df[i], mf[i])
		}
	}
	// Scan parity across every column binding.
	for _, name := range md.Schema().Names() {
		mr, dr := md.Rel(name), ds.Rel(name)
		for col := 0; col < mr.Arity(); col++ {
			for _, v := range append(vals, "absent-value") {
				b := []Binding{{Col: col, Value: v}}
				if got, want := dr.MatchCount(b), mr.MatchCount(b); got != want {
					t.Errorf("%s MatchCount(col=%d,%q): disk %d, mem %d", name, col, v, got, want)
				}
			}
		}
	}
}

func TestDiskReopenRoundTrip(t *testing.T) {
	ds, dir := openTestDisk(t)
	seedFacts(t, ds, 42, 300)
	want := ds.Facts()
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got := re.Facts()
	if len(got) != len(want) {
		t.Fatalf("reopen facts = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Rel != want[i].Rel || !got[i].Args.Equal(want[i].Args) {
			t.Fatalf("reopen Facts[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDiskCrashRecovery(t *testing.T) {
	ds, dir := openTestDisk(t)
	seedFacts(t, ds, 1, 100)
	if err := ds.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	synced := DeepCopy(ds)
	// Edits after the sync may or may not survive the kill.
	var after []Fact
	for i := 0; i < 50; i++ {
		f := NewFact("Teams", fmt.Sprintf("post%d", i), "X")
		if _, err := ds.InsertFact(f); err != nil {
			t.Fatalf("post-sync insert: %v", err)
		}
		after = append(after, f)
	}
	ds.Crash()
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	// Every synced fact must survive.
	for _, f := range synced.Facts() {
		if !re.Has(f) {
			t.Fatalf("synced fact %v lost after crash", f)
		}
	}
	// Anything extra must be a post-sync fact (a recovered prefix), never garbage.
	extra := 0
	for _, f := range re.Facts() {
		if synced.Has(f) {
			continue
		}
		ok := false
		for _, a := range after {
			if f.Rel == a.Rel && f.Args.Equal(a.Args) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("recovered unknown fact %v", f)
		}
		extra++
	}
	t.Logf("recovered %d/%d post-sync facts", extra, len(after))
}

func TestDiskSnapshotIsolation(t *testing.T) {
	ds, _ := openTestDisk(t)
	seedFacts(t, ds, 3, 50)
	snap := ds.Snapshot()
	if snap.ID() != ds.ID() {
		t.Errorf("snapshot ID = %d, want source ID %d", snap.ID(), ds.ID())
	}
	if snap.Generation() != ds.Generation() {
		t.Errorf("snapshot gen = %d, want %d", snap.Generation(), ds.Generation())
	}
	wantLen := snap.Len()
	f := NewFact("Teams", "post-snap", "X")
	if _, err := ds.InsertFact(f); err != nil {
		t.Fatalf("InsertFact: %v", err)
	}
	if snap.Has(f) {
		t.Errorf("snapshot sees post-snapshot insert")
	}
	if snap.Len() != wantLen {
		t.Errorf("snapshot Len changed: %d -> %d", wantLen, snap.Len())
	}
}

// TestDiskCSVRoundTrip: facts rendered as CSV load into the disk store as
// exactly the facts they came from, awkward values included, and survive a
// reopen.
func TestDiskCSVRoundTrip(t *testing.T) {
	ds, dir := openTestDisk(t)
	md := New(testSchema())
	seedFacts(t, md, 11, 120)
	var text strings.Builder
	cw := csv.NewWriter(&text)
	for _, f := range md.Facts() {
		if err := cw.Write(append([]string{f.Rel}, f.Args...)); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := LoadCSV(ds, strings.NewReader(text.String())); err != nil {
		t.Fatalf("LoadCSV(disk): %v", err)
	}
	if !Equal(ds, md) {
		t.Fatalf("CSV load differs from its source: distance %d", Distance(ds, md))
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if !Equal(re, md) {
		t.Fatalf("reopened CSV load differs from its source: distance %d", Distance(re, md))
	}
}

func TestMemSnapshotSemantics(t *testing.T) {
	d := New(testSchema())
	seedFacts(t, d, 9, 40)
	snap := d.Snapshot()
	if snap.ID() != d.ID() || snap.Generation() != d.Generation() {
		t.Fatalf("mem snapshot identity: (%d,%d), want (%d,%d)",
			snap.ID(), snap.Generation(), d.ID(), d.Generation())
	}
	f := NewFact("Teams", "late", "X")
	if _, err := d.InsertFact(f); err != nil {
		t.Fatal(err)
	}
	if snap.Has(f) {
		t.Errorf("mem snapshot sees later insert")
	}
}

func TestCloneCopyOnWrite(t *testing.T) {
	d := New(testSchema())
	facts := seedFacts(t, d, 13, 60)
	c := d.Clone()
	if !Equal(c, d) {
		t.Fatalf("clone differs at birth")
	}
	// Mutating the source must not affect the clone, and vice versa.
	if _, err := d.DeleteFact(facts[0]); err != nil {
		t.Fatal(err)
	}
	if !c.Has(facts[0]) {
		t.Errorf("source delete visible in clone")
	}
	g := NewFact("Teams", "clone-only", "C")
	if _, err := c.InsertFact(g); err != nil {
		t.Fatal(err)
	}
	if d.Has(g) {
		t.Errorf("clone insert visible in source")
	}
	// Scans on the mutated clone see consistent indexes.
	if got := c.Rel("Teams").MatchCount([]Binding{{Col: 0, Value: "clone-only"}}); got != 1 {
		t.Errorf("clone index MatchCount = %d, want 1", got)
	}
}

func TestStatsShapes(t *testing.T) {
	d := New(testSchema())
	seedFacts(t, d, 21, 30)
	st := d.Stats()
	if st.Backend != "mem" || st.TotalFacts != d.Len() {
		t.Errorf("mem stats = %+v", st)
	}
	ds, _ := openTestDisk(t)
	if _, err := Copy(ds, d); err != nil {
		t.Fatal(err)
	}
	dst := ds.Stats()
	if dst.Backend != "disk" || dst.TotalFacts != d.Len() {
		t.Errorf("disk stats = %+v", dst)
	}
	if dst.Symbols == 0 {
		t.Errorf("disk stats symbols = 0 after inserts")
	}
	if dst.DiskBytes == 0 {
		t.Errorf("disk stats bytes = 0 after inserts")
	}
	if dst.Relations["Teams"]+dst.Relations["Goals"] != dst.TotalFacts {
		t.Errorf("per-relation counts don't sum: %+v", dst)
	}
}

// TestSymtabTornTail: the legacy symbol decoder drops a torn final record
// and keeps every symbol before it, under its ID.
func TestSymtabTornTail(t *testing.T) {
	var raw []byte
	for _, v := range []string{"alpha", "", "beta", "日本"} {
		raw = appendSymRecord(raw, 2, v, false)
	}
	intact := len(raw)
	// A torn record: a length header promising more bytes than exist.
	raw = append(raw, 200, 1, 'x')
	syms, good, err := decodeLegacySymbols(raw, 2, legacySymsFile)
	if err != nil {
		t.Fatalf("decoding with a torn tail: %v", err)
	}
	if good != intact || len(syms) != 4 || syms[2] != "beta" {
		t.Errorf("decoded %q up to byte %d, want 4 symbols up to %d", syms, good, intact)
	}
}

func TestDiskSegmentTornTail(t *testing.T) {
	ds, dir := openTestDisk(t)
	if _, err := ds.InsertFact(NewFact("Teams", "A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the log: a length header promising absent bytes.
	appendBytes(t, filepath.Join(dir, diskLogFile), []byte{5, 9, 9})
	re, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		t.Fatalf("reopen with torn segment: %v", err)
	}
	defer re.Close()
	if !re.Has(NewFact("Teams", "A", "B")) {
		t.Errorf("good prefix lost to torn tail")
	}
	if re.Len() != 1 {
		t.Errorf("Len = %d after torn-tail truncation, want 1", re.Len())
	}
	if st := re.Stats(); st.TornTails != 1 || st.TornBytesTruncated != 3 {
		t.Errorf("torn tails, bytes = %d, %d; want 1, 3", st.TornTails, st.TornBytesTruncated)
	}
	// The store stays writable after truncation.
	if _, err := re.InsertFact(NewFact("Teams", "C", "D")); err != nil {
		t.Errorf("insert after truncation: %v", err)
	}
}
