package db

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestReservedBytesRejected: a value holding a key separator would let two
// distinct tuples share a key. Both backends must refuse it with the same
// error, and never report the colliding tuple as present.
func TestReservedBytesRejected(t *testing.T) {
	ds, _ := openTestDisk(t)
	stores := []struct {
		name string
		s    Store
	}{{"mem", New(testSchema())}, {"disk", ds}}
	var msgs [2][]string
	for i, st := range stores {
		for _, f := range []Fact{
			NewFact("Teams", "a\x1fb", "c"),
			NewFact("Teams", "a", "b\x1fc"),
			NewFact("Goals", "x\x1ey", "d"),
			NewFact("Goals", "p", "\x1e"),
		} {
			ch, err := st.s.InsertFact(f)
			if !errors.Is(err, ErrReservedByte) || ch {
				t.Errorf("%s: InsertFact(%q) = %v, %v; want false, ErrReservedByte", st.name, f.Args, ch, err)
			} else {
				msgs[i] = append(msgs[i], err.Error())
			}
			if st.s.Has(f) {
				t.Errorf("%s: Has(%q) = true for a refused fact", st.name, f.Args)
			}
			if ch, err := st.s.Apply(Insertion(f)); !errors.Is(err, ErrReservedByte) || ch {
				t.Errorf("%s: Apply(+%q) = %v, %v; want false, ErrReservedByte", st.name, f.Args, ch, err)
			}
		}
		if n := st.s.Len(); n != 0 || st.s.Generation() != 0 {
			t.Errorf("%s: refused inserts left %d facts at generation %d", st.name, n, st.s.Generation())
		}
		// A neighbour without reserved bytes still goes in.
		if ch, err := st.s.InsertFact(NewFact("Teams", "a", "b")); err != nil || !ch {
			t.Errorf("%s: InsertFact(a, b) = %v, %v", st.name, ch, err)
		}
	}
	if fmt.Sprint(msgs[0]) != fmt.Sprint(msgs[1]) {
		t.Errorf("backends disagree on the error:\n mem  %q\n disk %q", msgs[0], msgs[1])
	}
}

// TestMatchCountMatchesScan: every db.Rel implementation counts exactly the
// tuples its Scan returns, for random bindings including an out-of-range
// column, a value absent from the relation, and two bindings on one column.
func TestMatchCountMatchesScan(t *testing.T) {
	vals := []string{"a", "b", "c", "d", ""}
	mem := New(testSchema())
	ds, _ := openTestDisk(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		f := NewFact("Goals", vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		for _, s := range []Store{mem, ds} {
			if _, err := s.InsertFact(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	present := mem.Facts()[0]
	rels := []struct {
		name string
		rel  Rel
	}{
		{"mem", mem.Rel("Goals")},
		{"disk", ds.Rel("Goals")},
		{"overlay-insert", Overlay(mem, Insertion(NewFact("Goals", "a", "zz"))).Rel("Goals")},
		{"overlay-delete", Overlay(mem, Deletion(present)).Rel("Goals")},
		{"overlay-disk", Overlay(ds, Deletion(present)).Rel("Goals")},
	}
	pool := append(vals, "zz", "absent")
	fixed := [][]Binding{
		nil,
		{{Col: 2, Value: "a"}},
		{{Col: -1, Value: "a"}},
		{{Col: 0, Value: "absent"}},
		{{Col: 0, Value: "a"}, {Col: 0, Value: "b"}},
		{{Col: 0, Value: "a"}, {Col: 0, Value: "a"}},
		{{Col: 1, Value: "zz"}, {Col: 0, Value: "a"}},
	}
	for trial := 0; trial < 300; trial++ {
		var bs []Binding
		if trial < len(fixed) {
			bs = fixed[trial]
		} else {
			for n := rng.Intn(4); n > 0; n-- {
				bs = append(bs, Binding{Col: rng.Intn(3) - rng.Intn(2), Value: pool[rng.Intn(len(pool))]})
			}
		}
		for _, r := range rels {
			if got, want := r.rel.MatchCount(bs), len(r.rel.Scan(bs)); got != want {
				t.Errorf("%s: MatchCount(%v) = %d, len(Scan) = %d", r.name, bs, got, want)
			}
		}
	}
}

// TestRelationMatchCountAllocs: the join search calls MatchCount for every
// remaining atom at every node, so on the in-memory relation it must count
// without materializing the matches.
func TestRelationMatchCountAllocs(t *testing.T) {
	r := NewRelation("Goals", 2)
	for i := 0; i < 50; i++ {
		r.Insert(Tuple{fmt.Sprintf("p%d", i%5), fmt.Sprintf("d%d", i)})
	}
	for _, bs := range [][]Binding{
		{{Col: 0, Value: "p1"}},
		{{Col: 0, Value: "p1"}, {Col: 1, Value: "d6"}},
	} {
		if n := testing.AllocsPerRun(100, func() { r.MatchCount(bs) }); n != 0 {
			t.Errorf("MatchCount(%v) allocates %.0f times per call, want 0", bs, n)
		}
	}
}
