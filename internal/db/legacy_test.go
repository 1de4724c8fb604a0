package db

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/schema"
)

// legacyFixtures are the good stores under testdata/legacy, written by the
// sharded v1/v2 code; see the README there.
var legacyFixtures = []string{"v1-2shards", "v2-4shards-torn"}

// copyFixture copies testdata/legacy/<name> into a fresh temporary
// directory: opening a store changes it in place.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "legacy", name)
	dst := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// fixtureFacts loads the facts the sharded code read from a fixture.
func fixtureFacts(t *testing.T, name string) *Database {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "legacy", name+".facts.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := New(testSchema())
	if err := LoadCSV(want, f); err != nil {
		t.Fatal(err)
	}
	return want
}

// legacyFilesIn lists the files of the sharded layout left in dir.
func legacyFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if isLegacyFile(e.Name()) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestLegacyFixtures: each good fixture opens to the facts the sharded code
// read from it and is migrated by that open: store.json reads version 3, no
// symbols.dat or segment is left, and a reopen reads the same facts. The
// bit-flipped fixture fails as corruption, is quarantined, and every later
// open refuses it. Sharded files whose store.json is gone are refused and
// left in place.
func TestLegacyFixtures(t *testing.T) {
	for _, name := range legacyFixtures {
		t.Run(name, func(t *testing.T) {
			want := fixtureFacts(t, name)
			dir := copyFixture(t, name)
			ds, err := OpenDisk(dir, testSchema(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(ds, want) {
				t.Fatalf("opened to %d facts, %d away from the recorded %d", ds.Len(), Distance(ds, want), want.Len())
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			meta, err := os.ReadFile(filepath.Join(dir, diskMetaFile))
			if err != nil {
				t.Fatal(err)
			}
			var m diskMeta
			if err := json.Unmarshal(meta, &m); err != nil || m.Version != formatVersion || m.Checksum != m.checksum() {
				t.Errorf("store.json after migration = %s, want version %d with its checksum", meta, formatVersion)
			}
			if left := legacyFilesIn(t, dir); len(left) > 0 {
				t.Errorf("legacy files left after migration: %v", left)
			}
			re, err := OpenDisk(dir, testSchema(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if !Equal(re, want) {
				t.Errorf("reopen after migration is %d facts away", Distance(re, want))
			}
		})
	}
	t.Run("v2-bitflip", func(t *testing.T) {
		dir := copyFixture(t, "v2-bitflip")
		for i := 0; i < 2; i++ {
			if _, err := OpenDisk(dir, testSchema(), 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open %d = %v, want ErrCorrupt", i+1, err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineFile)); err != nil {
			t.Errorf("QUARANTINE marker missing: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, segName("Goals", 2)+".quarantined")); err != nil {
			t.Errorf("corrupt segment not moved aside: %v", err)
		}
	})
	// Without store.json the sharded files cannot be decoded: the open
	// refuses and leaves them, and restoring store.json migrates them.
	t.Run("v2-without-meta", func(t *testing.T) {
		dir := copyFixture(t, "v2-4shards-torn")
		meta := filepath.Join(dir, diskMetaFile)
		raw, err := os.ReadFile(meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(meta); err != nil {
			t.Fatal(err)
		}
		files := legacyFilesIn(t, dir)
		if _, err := OpenDisk(dir, testSchema(), 0); err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("open without store.json = %v, want a plain error", err)
		}
		if left := legacyFilesIn(t, dir); !slices.Equal(left, files) {
			t.Fatalf("sharded files after the refused open = %v, want %v", left, files)
		}
		if err := os.WriteFile(meta, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if want := fixtureFacts(t, "v2-4shards-torn"); !Equal(ds, want) {
			t.Errorf("open after restoring store.json is %d facts away", Distance(ds, want))
		}
	})
}

// TestMigrationCrashSweep injects a crash at every counted file operation
// of a migrating open; the next clean open of whatever the crash left must
// read the facts the sharded code read.
func TestMigrationCrashSweep(t *testing.T) {
	for _, name := range legacyFixtures {
		t.Run(name, func(t *testing.T) {
			want := fixtureFacts(t, name)
			counter := faultfs.NewInjector(faultfs.OS())
			ds, err := OpenDisk(copyFixture(t, name), testSchema(), 0, WithFS(counter))
			if err != nil {
				t.Fatal(err)
			}
			ds.Close()
			ops := counter.OpCount()
			for p := int64(1); p <= ops; p++ {
				dir := copyFixture(t, name)
				inj := faultfs.NewInjector(faultfs.OS(), faultfs.Fault{At: p, Kind: faultfs.KindCrash})
				if ds, err := OpenDisk(dir, testSchema(), 0, WithFS(inj)); err == nil {
					ds.Crash()
				}
				re, err := OpenDisk(dir, testSchema(), 0)
				if err != nil {
					t.Fatalf("crash at op %d/%d: clean open: %v", p, ops, err)
				}
				if !Equal(re, want) {
					t.Fatalf("crash at op %d/%d: clean open is %d facts away", p, ops, Distance(re, want))
				}
				re.Close()
			}
		})
	}
}

// TestUnknownRelationFailsPlainly: facts of a relation the schema lacks
// fail the open without a quarantine, in the log and in a legacy store, and
// the store opens again under its own schema.
func TestUnknownRelationFailsPlainly(t *testing.T) {
	teamsOnly := schema.New(schema.Relation{Name: "Teams", Attrs: []string{"name", "continent"}})
	check := func(t *testing.T, dir string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			_, err := OpenDisk(dir, teamsOnly, 0)
			if !errors.Is(err, errUnknownRelation) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("open %d under a narrower schema = %v, want a plain unknown-relation error", i+1, err)
			}
		}
		ds, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatalf("open under the store's schema: %v", err)
		}
		ds.Close()
	}
	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		ds, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.InsertFact(NewFact("Goals", "Klose", "2014")); err != nil {
			t.Fatal(err)
		}
		ds.Close()
		check(t, dir)
	})
	t.Run("legacy", func(t *testing.T) { check(t, copyFixture(t, "v2-4shards-torn")) })
}
