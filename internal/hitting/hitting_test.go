package hitting

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingletonsAndUniqueMinimal(t *testing.T) {
	// Example 4.4: witnesses {t1} and {t1,t2}: unique minimal hitting set {t1}.
	ss := NewSetSystem([]string{"t1"}, []string{"t1", "t2"})
	got, unique := ss.UniqueMinimal()
	if !unique || !reflect.DeepEqual(got, []string{"t1"}) {
		t.Errorf("UniqueMinimal = %v, %v; want [t1], true", got, unique)
	}
	// {t1,t2} and {t1,t3}: two minimal hitting sets, none unique.
	ss2 := NewSetSystem([]string{"t1", "t2"}, []string{"t1", "t3"})
	if _, unique := ss2.UniqueMinimal(); unique {
		t.Errorf("UniqueMinimal should not exist for {t1,t2},{t1,t3}")
	}
}

func TestUniqueMinimalExample46Endgame(t *testing.T) {
	// End of Example 4.6: sets {t2}, {t2,t4}, {t4} -> unique minimal {t2,t4}.
	ss := NewSetSystem([]string{"t2"}, []string{"t2", "t4"}, []string{"t4"})
	got, unique := ss.UniqueMinimal()
	if !unique || !reflect.DeepEqual(got, []string{"t2", "t4"}) {
		t.Errorf("UniqueMinimal = %v, %v; want [t2 t4], true", got, unique)
	}
}

func TestUniqueMinimalEmptySystem(t *testing.T) {
	ss := NewSetSystem()
	got, unique := ss.UniqueMinimal()
	if !unique || got != nil {
		t.Errorf("empty system: UniqueMinimal = %v, %v; want nil, true", got, unique)
	}
}

func TestIsHittingSet(t *testing.T) {
	ss := NewSetSystem([]string{"a", "b"}, []string{"b", "c"}, []string{"d"})
	if !ss.IsHittingSet([]string{"b", "d"}) {
		t.Errorf("IsHittingSet(b,d) = false")
	}
	if ss.IsHittingSet([]string{"b"}) {
		t.Errorf("IsHittingSet(b) = true; d-set not hit")
	}
	if !ss.IsHittingSet([]string{"a", "b", "c", "d"}) {
		t.Errorf("universe should hit everything")
	}
}

func TestIsMinimalHittingSet(t *testing.T) {
	ss := NewSetSystem([]string{"a", "b"}, []string{"b", "c"})
	if !ss.IsMinimalHittingSet([]string{"b"}) {
		t.Errorf("{b} should be minimal")
	}
	if ss.IsMinimalHittingSet([]string{"a", "b"}) {
		t.Errorf("{a,b} is not minimal (b alone suffices)")
	}
	if ss.IsMinimalHittingSet([]string{"a"}) {
		t.Errorf("{a} is not even a hitting set")
	}
	if !ss.IsMinimalHittingSet([]string{"a", "c"}) {
		t.Errorf("{a,c} should be minimal (dropping either misses a set)")
	}
}

func TestMostFrequent(t *testing.T) {
	ss := NewSetSystem([]string{"a", "b"}, []string{"a", "c"}, []string{"a"}, []string{"c"})
	if got := ss.MostFrequent(nil); got != "a" {
		t.Errorf("MostFrequent = %q, want a", got)
	}
	// Tie case with deterministic break: a and b both appear twice.
	ss2 := NewSetSystem([]string{"a"}, []string{"a", "b"}, []string{"b"})
	if got := ss2.MostFrequent(nil); got != "a" {
		t.Errorf("deterministic tie-break = %q, want a (lexicographic)", got)
	}
	// Random tie-break must pick among the maximal elements only.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		got := ss2.MostFrequent(rng)
		if got != "a" && got != "b" {
			t.Fatalf("random tie-break picked non-maximal %q", got)
		}
	}
	if got := NewSetSystem().MostFrequent(nil); got != "" {
		t.Errorf("MostFrequent on empty = %q, want \"\"", got)
	}
}

func TestRemoveSetsContaining(t *testing.T) {
	ss := NewSetSystem([]string{"a", "b"}, []string{"b", "c"}, []string{"c"})
	ss.RemoveSetsContaining("b")
	if ss.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ss.Len())
	}
	if !reflect.DeepEqual(ss.Sets()[0], []string{"c"}) {
		t.Errorf("remaining = %v", ss.Sets())
	}
}

func TestRemoveElement(t *testing.T) {
	ss := NewSetSystem([]string{"a", "b"}, []string{"a"}, []string{"b", "c"})
	emptied := ss.RemoveElement("a")
	if emptied != 1 {
		t.Errorf("emptied = %d, want 1 (the {a} set)", emptied)
	}
	sets := ss.Sets()
	if len(sets) != 2 || !reflect.DeepEqual(sets[0], []string{"b"}) {
		t.Errorf("sets after removal = %v", sets)
	}
}

func TestGreedyIsHittingSet(t *testing.T) {
	ss := NewSetSystem(
		[]string{"t1", "t2", "t3"}, []string{"t2", "t4", "t3"},
		[]string{"t4", "t1", "t3"}, []string{"t1", "t5", "t3"},
		[]string{"t2", "t5", "t3"}, []string{"t4", "t5", "t3"},
	)
	h := ss.Greedy()
	if !ss.IsHittingSet(h) {
		t.Fatalf("Greedy() = %v is not a hitting set", h)
	}
	// t3 occurs in all six witnesses (Example 4.6 structure), so greedy picks
	// it first and it alone hits everything.
	if !reflect.DeepEqual(h, []string{"t3"}) {
		t.Errorf("Greedy = %v, want [t3]", h)
	}
}

// TestUniqueMinimalTheorem45 checks both directions of Theorem 4.5 on random
// systems by brute-force enumeration of minimal hitting sets.
func TestUniqueMinimalTheorem45(t *testing.T) {
	elems := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(11))
	subsetOf := func(mask int) []string {
		var s []string
		for i, e := range elems {
			if mask&(1<<i) != 0 {
				s = append(s, e)
			}
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		nSets := 1 + rng.Intn(4)
		var sets [][]string
		for i := 0; i < nSets; i++ {
			mask := 1 + rng.Intn(15)
			sets = append(sets, subsetOf(mask))
		}
		ss := NewSetSystem(sets...)
		// Enumerate all minimal hitting sets by brute force.
		var minimals [][]string
		for mask := 0; mask < 16; mask++ {
			h := subsetOf(mask)
			if ss.IsMinimalHittingSet(h) {
				minimals = append(minimals, h)
			}
		}
		got, unique := ss.UniqueMinimal()
		if unique != (len(minimals) == 1) {
			t.Fatalf("trial %d sets %v: UniqueMinimal = %v, brute force found %d minimal hitting sets %v",
				trial, sets, unique, len(minimals), minimals)
		}
		if unique && !reflect.DeepEqual(got, minimals[0]) {
			t.Fatalf("trial %d: UniqueMinimal = %v, want %v", trial, got, minimals[0])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	ss := NewSetSystem([]string{"a", "b"})
	c := ss.Clone()
	c.RemoveElement("a")
	if !reflect.DeepEqual(ss.Sets()[0], []string{"a", "b"}) {
		t.Errorf("Clone shares state")
	}
}

func TestElementsSortedProperty(t *testing.T) {
	f := func(raw [][]string) bool {
		ss := NewSetSystem(raw...)
		elems := ss.Elements()
		return sort.StringsAreSorted(elems)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("Elements not sorted: %v", err)
	}
}

func TestAddEmptySetIgnored(t *testing.T) {
	ss := NewSetSystem([]string{}, nil, []string{"a"})
	if ss.Len() != 1 {
		t.Errorf("Len = %d, want 1 (empty sets ignored)", ss.Len())
	}
}
