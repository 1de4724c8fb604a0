package db

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

func TestRelationInsertDeleteHas(t *testing.T) {
	r := NewRelation("Teams", 2)
	if r.Len() != 0 {
		t.Fatalf("new relation not empty")
	}
	if !r.Insert(Tuple{"GER", "EU"}) {
		t.Errorf("first Insert = false")
	}
	if r.Insert(Tuple{"GER", "EU"}) {
		t.Errorf("duplicate Insert = true")
	}
	if !r.Has(Tuple{"GER", "EU"}) {
		t.Errorf("Has = false after insert")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Delete(Tuple{"GER", "EU"}) {
		t.Errorf("Delete of present tuple = false")
	}
	if r.Delete(Tuple{"GER", "EU"}) {
		t.Errorf("Delete of absent tuple = true")
	}
	if r.Has(Tuple{"GER", "EU"}) || r.Len() != 0 {
		t.Errorf("tuple still present after delete")
	}
}

func TestRelationInsertCopiesTuple(t *testing.T) {
	r := NewRelation("R", 1)
	in := Tuple{"a"}
	r.Insert(in)
	in[0] = "mutated"
	if !r.Has(Tuple{"a"}) {
		t.Errorf("relation aliased caller's tuple")
	}
}

func TestRelationInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Insert with wrong arity did not panic")
		}
	}()
	NewRelation("R", 2).Insert(Tuple{"only-one"})
}

func TestRelationTuplesSorted(t *testing.T) {
	r := NewRelation("R", 1)
	for _, v := range []string{"c", "a", "b"} {
		r.Insert(Tuple{v})
	}
	got := r.Tuples()
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if got[i][0] != w {
			t.Fatalf("Tuples()[%d] = %v, want %s", i, got[i], w)
		}
	}
}

func TestRelationScan(t *testing.T) {
	r := NewRelation("Games", 3)
	r.Insert(Tuple{"2014", "GER", "ARG"})
	r.Insert(Tuple{"2010", "ESP", "NED"})
	r.Insert(Tuple{"1990", "GER", "ARG"})

	got := r.Scan([]Binding{{Col: 1, Value: "GER"}})
	if len(got) != 2 {
		t.Fatalf("Scan(winner=GER) = %d tuples, want 2", len(got))
	}
	got = r.Scan([]Binding{{Col: 1, Value: "GER"}, {Col: 0, Value: "2014"}})
	if len(got) != 1 || got[0][2] != "ARG" {
		t.Fatalf("Scan(winner=GER,year=2014) = %v", got)
	}
	if got := r.Scan([]Binding{{Col: 1, Value: "BRA"}}); len(got) != 0 {
		t.Errorf("Scan of absent value = %v, want empty", got)
	}
	if got := r.Scan(nil); len(got) != 3 {
		t.Errorf("full Scan = %d tuples, want 3", len(got))
	}
	if got := r.Scan([]Binding{{Col: 9, Value: "x"}}); got != nil {
		t.Errorf("Scan with out-of-range column = %v, want nil", got)
	}
}

func TestRelationScanAfterDelete(t *testing.T) {
	r := NewRelation("R", 2)
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"a", "2"})
	r.Delete(Tuple{"a", "1"})
	got := r.Scan([]Binding{{Col: 0, Value: "a"}})
	if len(got) != 1 || got[0][1] != "2" {
		t.Fatalf("Scan after delete = %v", got)
	}
}

func TestRelationMatchCount(t *testing.T) {
	r := NewRelation("R", 2)
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"a", "2"})
	r.Insert(Tuple{"b", "1"})
	if got := r.MatchCount(nil); got != 3 {
		t.Errorf("MatchCount(nil) = %d, want 3", got)
	}
	if got := r.MatchCount([]Binding{{Col: 0, Value: "a"}}); got != 2 {
		t.Errorf("MatchCount(a) = %d, want 2", got)
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := NewRelation("R", 1)
	r.Insert(Tuple{"x"})
	c := r.Clone()
	c.Insert(Tuple{"y"})
	r.Delete(Tuple{"x"})
	if !c.Has(Tuple{"x"}) || !c.Has(Tuple{"y"}) {
		t.Errorf("clone affected by original mutation")
	}
	if r.Has(Tuple{"y"}) {
		t.Errorf("original affected by clone mutation")
	}
}

// TestRelationIndexConsistency fuzzes inserts and deletes over a relation and
// its copy-on-write clones, mutating every side, and checks after each step
// that every side's Scan and MatchCount agree with a naive filter of its
// reference set for 0 to 3 bindings.
func TestRelationIndexConsistency(t *testing.T) {
	type side struct {
		r   *Relation
		ref map[string]Tuple
	}
	rng := rand.New(rand.NewSource(42))
	vals := []string{"a", "b", "c", "d"}
	sides := []*side{{NewRelation("R", 3), map[string]Tuple{}}}
	for step := 0; step < 3000; step++ {
		s := sides[rng.Intn(len(sides))]
		tp := Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
		switch op := rng.Intn(10); {
		case op == 0:
			c := &side{s.r.Clone(), maps.Clone(s.ref)}
			if len(sides) < 3 {
				sides = append(sides, c)
			} else {
				sides[rng.Intn(len(sides))] = c
			}
		case op < 6:
			s.r.Insert(tp)
			s.ref[tp.Key()] = tp
		default:
			s.r.Delete(tp)
			delete(s.ref, tp.Key())
		}
		for n, s := range sides {
			if s.r.Len() != len(s.ref) {
				t.Fatalf("step %d side %d: Len = %d, ref = %d", step, n, s.r.Len(), len(s.ref))
			}
			var bs []Binding
			for k := rng.Intn(4); k > 0; k-- {
				bs = append(bs, Binding{Col: rng.Intn(3), Value: vals[rng.Intn(len(vals))]})
			}
			var want []string
			for k, tp := range s.ref {
				if tupleMatches(tp, bs) {
					want = append(want, k)
				}
			}
			got := make([]string, 0, len(want))
			for _, tp := range s.r.Scan(bs) {
				got = append(got, tp.Key())
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d side %d: Scan(%v) = %q, want %q", step, n, bs, got, want)
			}
			if c := s.r.MatchCount(bs); c != len(want) {
				t.Fatalf("step %d side %d: MatchCount(%v) = %d, want %d", step, n, bs, c, len(want))
			}
		}
	}
}

// TestRelationScanAllocs: a one-binding Scan returns the value's posting
// itself, so the join search's most common scan allocates nothing.
func TestRelationScanAllocs(t *testing.T) {
	r := NewRelation("Goals", 2)
	for i := 0; i < 50; i++ {
		r.Insert(Tuple{fmt.Sprintf("p%d", i%5), fmt.Sprintf("d%d", i)})
	}
	bs := []Binding{{Col: 0, Value: "p1"}}
	n := 0
	if a := testing.AllocsPerRun(100, func() { n = len(r.Scan(bs)) }); a != 0 {
		t.Errorf("Scan(%v) allocates %.0f times per call, want 0", bs, a)
	}
	if n != 10 {
		t.Errorf("Scan(%v) = %d tuples, want 10", bs, n)
	}
}

// TestRelationScanOutlivesCloneEdits: a Scan result taken from one side of a
// copy-on-write clone keeps its contents while the other side inserts into
// and deletes from the same postings.
func TestRelationScanOutlivesCloneEdits(t *testing.T) {
	keys := func(ts []Tuple) []string {
		out := make([]string, len(ts))
		for i, tp := range ts {
			out[i] = tp.Key()
		}
		return out
	}
	bs := []Binding{{Col: 0, Value: "x"}}
	for _, scanClone := range []bool{true, false} {
		src := NewRelation("R", 2)
		for _, v := range []string{"1", "2", "3", "4", "5"} {
			src.Insert(Tuple{"x", v})
		}
		clone := src.Clone()
		scanned, edited := clone, src
		if !scanClone {
			scanned, edited = src, clone
		}
		got := scanned.Scan(bs)
		want := keys(got)
		edited.Delete(Tuple{"x", "1"})
		edited.Insert(Tuple{"x", "6"})
		edited.Delete(Tuple{"x", "3"})
		edited.Insert(Tuple{"x", "7"})
		if !slices.Equal(keys(got), want) {
			t.Errorf("scan of clone=%v changed under the other side's edits: %q, want %q", scanClone, keys(got), want)
		}
		if n := scanned.MatchCount(bs); n != 5 {
			t.Errorf("scanned side (clone=%v) holds %d x-tuples, want 5", scanClone, n)
		}
	}
}

// TestOverlayInsertionsShareNoPosting: two overlays inserting over the same
// base posting each see their own tuple only. The posting has spare
// capacity, so an overlay that appended to it in place would write both
// tuples into the same slot of the shared backing array.
func TestOverlayInsertionsShareNoPosting(t *testing.T) {
	d := New(testSchema())
	for _, n := range []string{"GER", "ITA", "ESP"} {
		d.InsertFact(NewFact("Teams", n, "EU"))
	}
	if p := d.rels["Teams"].index[1]["EU"]; cap(p) == len(p) {
		t.Fatalf("posting has no spare capacity (len %d, cap %d): the test needs some", len(p), cap(p))
	}
	bs := []Binding{{Col: 1, Value: "EU"}}
	a := Overlay(d, Insertion(NewFact("Teams", "A", "EU"))).Rel("Teams").Scan(bs)
	b := Overlay(d, Insertion(NewFact("Teams", "B", "EU"))).Rel("Teams").Scan(bs)
	for _, c := range []struct {
		name      string
		got       []Tuple
		own, peer string
	}{{"A", a, "A", "B"}, {"B", b, "B", "A"}} {
		has := func(name string) bool {
			return slices.ContainsFunc(c.got, func(tp Tuple) bool { return tp[0] == name })
		}
		if len(c.got) != 4 || !has(c.own) || has(c.peer) {
			t.Errorf("overlay %s scans %v, want the 3 base tuples and its own", c.name, c.got)
		}
	}
}

func TestRelationEachEarlyStop(t *testing.T) {
	r := NewRelation("R", 1)
	r.Insert(Tuple{"a"})
	r.Insert(Tuple{"b"})
	n := 0
	r.Each(func(Tuple) bool { n++; return false })
	if n != 1 {
		t.Errorf("Each did not stop early: visited %d", n)
	}
}
