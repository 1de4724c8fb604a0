package storecfg

import (
	"flag"
	"testing"

	"repro/internal/db"
	"repro/internal/schema"
)

func testSeed(t *testing.T) *db.Database {
	t.Helper()
	s := schema.New(schema.Relation{Name: "Teams", Attrs: []string{"team", "confed"}})
	d := db.New(s)
	d.InsertFact(db.NewFact("Teams", "ESP", "EU"))
	d.InsertFact(db.NewFact("Teams", "BRA", "SA"))
	return d
}

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Backend != "mem" && c.Backend != "disk" {
		t.Fatalf("default backend = %q", c.Backend)
	}
}

func TestRegisterHonorsEnv(t *testing.T) {
	t.Setenv("QOCO_STORE", "disk")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Backend != "disk" {
		t.Errorf("backend = %q with QOCO_STORE=disk, want disk", c.Backend)
	}
	// An explicit flag still overrides the environment default.
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	c2 := Register(fs2)
	if err := fs2.Parse([]string{"-store", "mem"}); err != nil {
		t.Fatal(err)
	}
	if c2.Backend != "mem" {
		t.Errorf("backend = %q with -store mem, want mem", c2.Backend)
	}
}

func TestMaterializeMem(t *testing.T) {
	seed := testSeed(t)
	st, err := (&Config{Backend: "mem"}).Materialize(seed)
	if err != nil {
		t.Fatal(err)
	}
	if st != db.Store(seed) {
		t.Error("mem backend did not return the seed database itself")
	}
}

func TestMaterializeDiskSeedsAndResumes(t *testing.T) {
	seed := testSeed(t)
	dir := t.TempDir()
	cfg := &Config{Backend: "disk", Dir: dir}

	st, err := cfg.Materialize(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(st, seed) {
		t.Fatalf("disk store not seeded: distance %d", db.Distance(st, seed))
	}
	edit := db.NewFact("Teams", "GER", "EU")
	if _, err := st.InsertFact(edit); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening a non-empty dir resumes its contents; the seed is ignored.
	st2, err := cfg.Materialize(testSeed(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Has(edit) {
		t.Error("reopened store lost the edit applied before Close")
	}
	if st2.Len() != 3 {
		t.Errorf("reopened store has %d facts, want 3", st2.Len())
	}
	if st2.Stats().Backend != "disk" {
		t.Errorf("backend = %q, want disk", st2.Stats().Backend)
	}
}

func TestMaterializeUnknownBackend(t *testing.T) {
	if _, err := (&Config{Backend: "tape"}).Materialize(testSeed(t)); err == nil {
		t.Error("unknown backend did not error")
	}
}
