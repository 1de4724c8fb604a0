package hitting

import (
	"fmt"
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

// refSetSystem is the reference for SetSystem, with no interning: every set
// is its own map, and every query rebuilds a frequency map and sorts its
// keys. TestSetSystemMatchesReference drives it beside SetSystem.
type refSetSystem struct {
	sets []map[string]bool
}

func (ss *refSetSystem) Add(elems []string) {
	if len(elems) == 0 {
		return
	}
	m := make(map[string]bool, len(elems))
	for _, e := range elems {
		m[e] = true
	}
	ss.sets = append(ss.sets, m)
}

func (ss *refSetSystem) Len() int { return len(ss.sets) }

func (ss *refSetSystem) Empty() bool { return len(ss.sets) == 0 }

func (ss *refSetSystem) Sets() [][]string {
	out := make([][]string, len(ss.sets))
	for i, m := range ss.sets {
		out[i] = refSortedKeys(m)
	}
	return out
}

func (ss *refSetSystem) Elements() []string {
	set := make(map[string]bool)
	for _, m := range ss.sets {
		for e := range m {
			set[e] = true
		}
	}
	return refSortedKeys(set)
}

func (ss *refSetSystem) Clone() *refSetSystem {
	out := &refSetSystem{sets: make([]map[string]bool, len(ss.sets))}
	for i, m := range ss.sets {
		c := make(map[string]bool, len(m))
		for e := range m {
			c[e] = true
		}
		out.sets[i] = c
	}
	return out
}

func (ss *refSetSystem) Singletons() []string {
	set := make(map[string]bool)
	for _, m := range ss.sets {
		if len(m) == 1 {
			for e := range m {
				set[e] = true
			}
		}
	}
	return refSortedKeys(set)
}

func (ss *refSetSystem) IsHittingSet(h []string) bool {
	hm := make(map[string]bool, len(h))
	for _, e := range h {
		hm[e] = true
	}
	for _, m := range ss.sets {
		hit := false
		for e := range m {
			if hm[e] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

func (ss *refSetSystem) UniqueMinimal() ([]string, bool) {
	m := ss.Singletons()
	if len(m) == 0 {
		if ss.Empty() {
			return nil, true
		}
		return nil, false
	}
	if ss.IsHittingSet(m) {
		return m, true
	}
	return nil, false
}

func (ss *refSetSystem) Frequencies() map[string]int {
	out := make(map[string]int)
	for _, m := range ss.sets {
		for e := range m {
			out[e]++
		}
	}
	return out
}

func (ss *refSetSystem) MostFrequent(rng *rand.Rand) string {
	freq := ss.Frequencies()
	if len(freq) == 0 {
		return ""
	}
	set := make(map[string]bool, len(freq))
	for e := range freq {
		set[e] = true
	}
	best := -1
	var ties []string
	for _, e := range refSortedKeys(set) {
		n := freq[e]
		if n > best {
			best = n
			ties = ties[:0]
		}
		if n == best {
			ties = append(ties, e)
		}
	}
	if rng == nil || len(ties) == 1 {
		return ties[0]
	}
	return ties[rng.Intn(len(ties))]
}

func (ss *refSetSystem) RemoveSetsContaining(e string) {
	out := ss.sets[:0]
	for _, m := range ss.sets {
		if !m[e] {
			out = append(out, m)
		}
	}
	ss.sets = out
}

func (ss *refSetSystem) RemoveElement(e string) (emptied int) {
	out := ss.sets[:0]
	for _, m := range ss.sets {
		if m[e] {
			delete(m, e)
			if len(m) == 0 {
				emptied++
				continue
			}
		}
		out = append(out, m)
	}
	ss.sets = out
	return emptied
}

func (ss *refSetSystem) Greedy() []string {
	work := ss.Clone()
	var h []string
	for !work.Empty() {
		e := work.MostFrequent(nil)
		h = append(h, e)
		work.RemoveSetsContaining(e)
	}
	sort.Strings(h)
	return h
}

func refSortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// observation is every query of the differential on one set system.
// MostFrequent holds the pick under a rand.Rand of a given seed and Next that
// generator's next draw, so a pick that made a different number of draws
// shows up too.
type observation struct {
	Len                    int
	Empty                  bool
	Elements, Singletons   []string
	Frequencies            map[string]int
	Sets                   [][]string
	UniqueMinimal          []string
	Unique                 bool
	Greedy                 []string
	HitsProbe              bool
	MostFrequent, FirstTie string
	Next                   int64
}

// querier is the read side shared by SetSystem and the reference.
type querier interface {
	Len() int
	Empty() bool
	Elements() []string
	Singletons() []string
	Frequencies() map[string]int
	Sets() [][]string
	UniqueMinimal() ([]string, bool)
	Greedy() []string
	IsHittingSet([]string) bool
}

func observe(ss querier, mostFrequent func(*rand.Rand) string, seed int64, probe []string) observation {
	o := observation{
		Len:         ss.Len(),
		Empty:       ss.Empty(),
		Elements:    ss.Elements(),
		Singletons:  ss.Singletons(),
		Frequencies: ss.Frequencies(),
		Sets:        ss.Sets(),
		Greedy:      ss.Greedy(),
		HitsProbe:   ss.IsHittingSet(probe),
		FirstTie:    mostFrequent(nil),
	}
	o.UniqueMinimal, o.Unique = ss.UniqueMinimal()
	rng := rand.New(rand.NewSource(seed))
	o.MostFrequent = mostFrequent(rng)
	o.Next = rng.Int63()
	return o
}

// TestSetSystemMatchesReference drives SetSystem and the map-based reference
// through one seeded sequence of Add, RemoveElement, RemoveSetsContaining and
// Clone per system, over 1,000 systems of up to 200 sets of 1-6 elements out
// of at most 120, with duplicates inside sets, duplicate sets and
// singletons. A third of the systems add their sets with Add, a third
// through the ID path Algorithm 1 builds with (InternKey from one reused
// buffer, then AddIDs of one reused ID slice), and a third pick either path
// per set. After every step both must answer every query alike, and mutating
// a clone must leave its source unchanged.
func TestSetSystemMatchesReference(t *testing.T) {
	var buf []byte
	var ids []int32
	addByID := func(ss *SetSystem, elems []string) {
		ids = ids[:0]
		for _, e := range elems {
			buf = append(buf[:0], e...)
			ids = append(ids, ss.InternKey(buf))
		}
		ss.AddIDs(ids)
	}
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add := func(ss *SetSystem, elems []string) {
			switch seed % 3 {
			case 0:
				ss.Add(elems)
			case 1:
				addByID(ss, elems)
			default:
				if rng.Intn(2) == 0 {
					ss.Add(elems)
				} else {
					addByID(ss, elems)
				}
			}
		}
		universe := make([]string, 1+rng.Intn(120))
		for i := range universe {
			universe[i] = fmt.Sprintf("f%d", rng.Intn(4*len(universe)))
		}
		var added [][]string
		randomSet := func() []string {
			if len(added) > 0 && rng.Intn(8) == 0 {
				return append([]string(nil), added[rng.Intn(len(added))]...) // a duplicate set
			}
			s := make([]string, 1+rng.Intn(6)) // size 1 is a singleton
			for i := range s {
				s[i] = universe[rng.Intn(len(universe))] // duplicates within a set allowed
			}
			if rng.Intn(10) == 0 {
				s = append(s, fmt.Sprintf("new%d", rng.Intn(1000))) // interned mid-run
			}
			added = append(added, s)
			return s
		}
		// An element to remove: mostly one still present, sometimes one that
		// is absent now or was never added.
		randomElement := func(ref *refSetSystem) string {
			if elems := ref.Elements(); len(elems) > 0 && rng.Intn(5) > 0 {
				return elems[rng.Intn(len(elems))]
			}
			if rng.Intn(2) == 0 {
				return "never-added"
			}
			return universe[rng.Intn(len(universe))]
		}
		// A quarter of the systems start with up to 200 sets, the rest with
		// up to 50: the reference's Greedy dominates the test's run time.
		maxSets := 50
		if seed%4 == 0 {
			maxSets = 200
		}
		var initial [][]string
		for i := rng.Intn(maxSets + 1); i > 0; i-- {
			initial = append(initial, randomSet())
		}
		got, ref := NewSetSystem(), &refSetSystem{}
		for _, s := range initial {
			add(got, s)
			ref.Add(s)
		}
		check := func(step string, got *SetSystem, ref *refSetSystem) {
			t.Helper()
			probe := make([]string, 0, 4)
			for i := rng.Intn(4); i >= 0; i-- {
				probe = append(probe, universe[rng.Intn(len(universe))])
			}
			mfSeed := rng.Int63()
			g := observe(got, got.MostFrequent, mfSeed, probe)
			r := observe(ref, ref.MostFrequent, mfSeed, probe)
			if !reflect.DeepEqual(g, r) {
				t.Fatalf("seed %d, after %s:\nSetSystem: %+v\nreference: %+v", seed, step, g, r)
			}
		}
		check("NewSetSystem", got, ref)
		for step := 0; step < 8; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				s := randomSet()
				add(got, s)
				ref.Add(s)
				check(fmt.Sprintf("Add(%q)", s), got, ref)
			case op < 6:
				e := randomElement(ref)
				if g, r := got.RemoveElement(e), ref.RemoveElement(e); g != r {
					t.Fatalf("seed %d: RemoveElement(%q) emptied %d, reference %d", seed, e, g, r)
				}
				check(fmt.Sprintf("RemoveElement(%q)", e), got, ref)
			case op < 9:
				e := randomElement(ref)
				got.RemoveSetsContaining(e)
				ref.RemoveSetsContaining(e)
				check(fmt.Sprintf("RemoveSetsContaining(%q)", e), got, ref)
			default:
				gc, rc := got.Clone(), ref.Clone()
				before := observe(got, got.MostFrequent, 0, nil)
				// Mutate the clones, including an Add that interns a new name.
				s := append(randomSet(), fmt.Sprintf("clone%d", step))
				add(gc, s)
				rc.Add(s)
				e := randomElement(rc)
				gc.RemoveElement(e)
				rc.RemoveElement(e)
				e = randomElement(rc)
				gc.RemoveSetsContaining(e)
				rc.RemoveSetsContaining(e)
				if after := observe(got, got.MostFrequent, 0, nil); !reflect.DeepEqual(after, before) {
					t.Fatalf("seed %d: mutating a clone changed its source:\nbefore: %+v\nafter: %+v", seed, before, after)
				}
				check("mutating a clone", gc, rc)
				// Interning in the source must not leak into the clone either.
				s = append(randomSet(), fmt.Sprintf("source%d", step))
				add(got, s)
				ref.Add(s)
				check("growing a clone's source", gc, rc)
				check(fmt.Sprintf("Add(%q) after Clone", s), got, ref)
				if rng.Intn(2) == 0 {
					got, ref = gc, rc // go on with the clones
				}
			}
		}
	}
}
