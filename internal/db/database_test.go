package db

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "Teams", Attrs: []string{"name", "continent"}},
		schema.Relation{Name: "Goals", Attrs: []string{"player", "date"}},
	)
}

func TestDatabaseInsertDelete(t *testing.T) {
	d := New(testSchema())
	f := NewFact("Teams", "GER", "EU")
	ch, err := d.InsertFact(f)
	if err != nil || !ch {
		t.Fatalf("InsertFact = %v, %v", ch, err)
	}
	if !d.Has(f) {
		t.Errorf("Has = false after insert")
	}
	ch, err = d.InsertFact(f)
	if err != nil || ch {
		t.Errorf("duplicate InsertFact = %v, %v; want false, nil (idempotent)", ch, err)
	}
	ch, err = d.DeleteFact(f)
	if err != nil || !ch {
		t.Errorf("DeleteFact = %v, %v", ch, err)
	}
	if d.Has(f) {
		t.Errorf("fact present after delete")
	}
}

func TestDatabaseErrors(t *testing.T) {
	d := New(testSchema())
	if _, err := d.InsertFact(NewFact("Nope", "x")); err == nil {
		t.Errorf("insert into unknown relation: want error")
	}
	if _, err := d.InsertFact(NewFact("Teams", "only-one")); err == nil {
		t.Errorf("arity mismatch: want error")
	}
	if _, err := d.DeleteFact(NewFact("Nope", "x")); err == nil {
		t.Errorf("delete from unknown relation: want error")
	}
}

func TestApplyIdempotence(t *testing.T) {
	d := New(testSchema())
	f := NewFact("Teams", "ESP", "EU")
	if ch, _ := d.Apply(Insertion(f)); !ch {
		t.Errorf("first insert edit: changed = false")
	}
	if ch, _ := d.Apply(Insertion(f)); ch {
		t.Errorf("second insert edit: changed = true, want idempotent no-op")
	}
	if ch, _ := d.Apply(Deletion(f)); !ch {
		t.Errorf("delete edit: changed = false")
	}
	if ch, _ := d.Apply(Deletion(f)); ch {
		t.Errorf("second delete edit: changed = true, want idempotent no-op")
	}
}

func TestApplyAll(t *testing.T) {
	d := New(testSchema())
	edits := []Edit{
		Insertion(NewFact("Teams", "GER", "EU")),
		Insertion(NewFact("Teams", "GER", "EU")), // no-op
		Insertion(NewFact("Goals", "Götze", "13.07.14")),
		Deletion(NewFact("Teams", "GER", "EU")),
	}
	n, err := d.ApplyAll(edits)
	if err != nil {
		t.Fatalf("ApplyAll error: %v", err)
	}
	if n != 3 {
		t.Errorf("changed = %d, want 3", n)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestApplyAllStopsOnError(t *testing.T) {
	d := New(testSchema())
	edits := []Edit{
		Insertion(NewFact("Teams", "GER", "EU")),
		Insertion(NewFact("Bogus", "x")),
		Insertion(NewFact("Teams", "ESP", "EU")),
	}
	n, err := d.ApplyAll(edits)
	if err == nil {
		t.Fatalf("ApplyAll: want error")
	}
	if n != 1 {
		t.Errorf("changed before error = %d, want 1", n)
	}
	if d.Has(NewFact("Teams", "ESP", "EU")) {
		t.Errorf("edit after error was applied")
	}
}

func TestFactsDeterministicOrder(t *testing.T) {
	d := New(testSchema())
	d.InsertFact(NewFact("Teams", "GER", "EU"))
	d.InsertFact(NewFact("Goals", "Pirlo", "09.07.06"))
	d.InsertFact(NewFact("Teams", "BRA", "SA"))
	got := d.Facts()
	want := []string{"Goals(Pirlo, 09.07.06)", "Teams(BRA, SA)", "Teams(GER, EU)"}
	if len(got) != len(want) {
		t.Fatalf("Facts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("Facts[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestDistanceAndEqual(t *testing.T) {
	a := New(testSchema())
	b := New(testSchema())
	if Distance(a, b) != 0 || !Equal(a, b) {
		t.Fatalf("empty databases not equal")
	}
	a.InsertFact(NewFact("Teams", "GER", "EU"))
	if got := Distance(a, b); got != 1 {
		t.Errorf("Distance = %d, want 1", got)
	}
	if got := Distance(b, a); got != 1 {
		t.Errorf("Distance not symmetric: %d", got)
	}
	b.InsertFact(NewFact("Teams", "ESP", "EU"))
	if got := Distance(a, b); got != 2 {
		t.Errorf("Distance = %d, want 2", got)
	}
	if Equal(a, b) {
		t.Errorf("distinct databases Equal")
	}
}

// TestDistanceMonotoneUnderCorrectEdits is the paper's Proposition 3.3: an
// edit derived from a correct oracle answer never increases |D − DG|.
func TestDistanceMonotoneUnderCorrectEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := testSchema()
	dg := New(s)
	dg.InsertFact(NewFact("Teams", "GER", "EU"))
	dg.InsertFact(NewFact("Teams", "ITA", "EU"))
	dg.InsertFact(NewFact("Goals", "Pirlo", "09.07.06"))

	d := New(s)
	d.InsertFact(NewFact("Teams", "GER", "EU"))
	d.InsertFact(NewFact("Teams", "NED", "SA")) // wrong fact

	for i := 0; i < 200; i++ {
		before := Distance(d, dg)
		// A "correct" edit: insert a fact of DG or delete a fact not in DG.
		var e Edit
		if rng.Intn(2) == 0 {
			facts := dg.Facts()
			e = Insertion(facts[rng.Intn(len(facts))])
		} else {
			facts := d.Facts()
			if len(facts) == 0 {
				continue
			}
			f := facts[rng.Intn(len(facts))]
			if dg.Has(f) {
				continue // deleting a true fact would be an incorrect answer
			}
			e = Deletion(f)
		}
		if _, err := d.Apply(e); err != nil {
			t.Fatalf("Apply(%v): %v", e, err)
		}
		if after := Distance(d, dg); after > before {
			t.Fatalf("edit %v increased distance %d -> %d", e, before, after)
		}
	}
}

func TestDiffTransformsDatabase(t *testing.T) {
	a := New(testSchema())
	a.InsertFact(NewFact("Teams", "NED", "SA"))
	a.InsertFact(NewFact("Teams", "GER", "EU"))
	b := New(testSchema())
	b.InsertFact(NewFact("Teams", "GER", "EU"))
	b.InsertFact(NewFact("Teams", "ITA", "EU"))

	edits := Diff(a, b)
	if len(edits) != 2 {
		t.Fatalf("Diff = %v, want 2 edits", edits)
	}
	if _, err := a.ApplyAll(edits); err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	if !Equal(a, b) {
		t.Errorf("a != b after applying Diff")
	}
}

func TestCloneDeep(t *testing.T) {
	d := New(testSchema())
	d.InsertFact(NewFact("Teams", "GER", "EU"))
	c := d.Clone()
	c.InsertFact(NewFact("Teams", "ITA", "EU"))
	d.DeleteFact(NewFact("Teams", "GER", "EU"))
	if !c.Has(NewFact("Teams", "GER", "EU")) {
		t.Errorf("clone shares relation state with original")
	}
	if d.Has(NewFact("Teams", "ITA", "EU")) {
		t.Errorf("original shares relation state with clone")
	}
	if c.Schema() != d.Schema() {
		t.Errorf("clone should share the immutable schema")
	}
}

// TestCSVRoundTrip: LoadCSV parses quoted values (separators, escaped
// quotes, embedded newlines) back into exactly the facts they encode.
func TestCSVRoundTrip(t *testing.T) {
	const text = "Teams,GER,EU\n" +
		"Teams,\"comma,value\",EU\n" +
		"Teams,\"say \"\"hi\"\"\",\"line\nbreak\"\n" +
		"Goals,Pirlo,09.07.06\n"
	want := New(testSchema())
	want.InsertFact(NewFact("Teams", "GER", "EU"))
	want.InsertFact(NewFact("Teams", "comma,value", "EU"))
	want.InsertFact(NewFact("Teams", `say "hi"`, "line\nbreak"))
	want.InsertFact(NewFact("Goals", "Pirlo", "09.07.06"))

	d := New(testSchema())
	if err := LoadCSV(d, strings.NewReader(text)); err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	if !Equal(d, want) {
		t.Errorf("LoadCSV parsed %v, want %v", d.Facts(), want.Facts())
	}
}

func TestLoadCSVErrors(t *testing.T) {
	d := New(testSchema())
	if err := LoadCSV(d, strings.NewReader("Bogus,x\n")); err == nil {
		t.Errorf("unknown relation: want error")
	}
	if err := LoadCSV(d, strings.NewReader("Teams\n")); err == nil {
		t.Errorf("short record: want error")
	}
	if err := LoadCSV(d, strings.NewReader("Teams,a,b,c\n")); err == nil {
		t.Errorf("arity mismatch: want error")
	}
}
