package check

import (
	"strings"
	"testing"

	"repro/internal/db"
)

// trials returns the sweep width: the full 500+ seeded instances per
// property normally, a fast slice under -short so tier-1 stays quick.
func trials(t *testing.T, full int) int {
	if testing.Short() {
		if full > 60 {
			return 60
		}
		return full
	}
	return full
}

// sweep runs prop over seeded instances; on the first failure it shrinks
// the instance and fails with the minimized reproduction recipe.
func sweep(t *testing.T, n int, prop Property) {
	t.Helper()
	for seed := int64(1); seed <= int64(n); seed++ {
		ins := Generate(seed)
		if err := prop(ins); err != nil {
			min := Shrink(ins, prop)
			t.Fatalf("seed %d: %v\n\nminimized reproduction:\n%s", seed, err, min.Repro())
		}
	}
}

// TestGeneratedInstancesValid: every generated query and union validates
// against its schema and round-trips through the Datalog printer/parser —
// the generator feeds all other properties, so it must produce well-formed
// instances for every seed.
func TestGeneratedInstancesValid(t *testing.T) {
	sweep(t, trials(t, 2000), func(ins *Instance) error {
		if err := ins.Query.Validate(ins.Schema); err != nil {
			return err
		}
		for _, q := range ins.Union.Disjuncts {
			if err := q.Validate(ins.Schema); err != nil {
				return err
			}
		}
		return checkQueryRoundTrip(ins)
	})
}

// TestEvalParity: the optimized evaluator (indexed, cached)
// agrees with the naive reference on every generated instance, including
// after cache-warming and in-place edits.
func TestEvalParity(t *testing.T) {
	sweep(t, trials(t, 600), CheckEvalParity)
}

// TestViewParity: incrementally maintained counting views stay identical to
// refreshed-from-scratch references, and eval.Witnesses with the engine
// registered to the cold and naive-derived witness sets, after every edit of
// every generated script, including union disjuncts and negated-atom queries.
func TestViewParity(t *testing.T) {
	sweep(t, trials(t, 500), CheckViewParity)
}

// TestIVMParity: with a view.Engine registered as the store's maintainer,
// every evaluation path (Result, Witnesses, AnswerHolds, Holds, ResultUnion)
// is byte-identical to the naive reference at every step of the
// edit script, and out-of-band edits force a correct cold fallback.
func TestIVMParity(t *testing.T) {
	sweep(t, trials(t, 500), CheckIVMParity)
}

// TestCleanerConvergence: the end-to-end cleaner with a perfect oracle
// reaches Q(D') = Q(DG) with only distance-reducing edits.
func TestCleanerConvergence(t *testing.T) {
	sweep(t, trials(t, 500), CheckCleaner)
}

// TestHittingDifferential: greedy, most-frequent and Theorem 4.5
// unique-minimal detection agree with brute-force subset enumeration on
// seeded random set systems.
func TestHittingDifferential(t *testing.T) {
	n := trials(t, 800)
	for seed := int64(1); seed <= int64(n); seed++ {
		sets := GenerateSetSystem(seed)
		if err := CheckHittingSets(sets); err != nil {
			min := ShrinkSets(sets, CheckHittingSets)
			t.Fatalf("seed %d: %v\n\nminimized set system: %v", seed, err, min)
		}
	}
}

// TestHittingDegenerate pins the satellite's degenerate inputs explicitly:
// empty systems, duplicate sets, protected-by-construction singletons, and
// systems whose minimal hitting sets tie.
func TestHittingDegenerate(t *testing.T) {
	cases := [][][]string{
		{},                                   // empty system: empty set hits vacuously
		{{"a"}},                              // one singleton
		{{"a"}, {"a"}},                       // duplicate singleton sets
		{{"a", "b"}, {"a", "b"}},             // duplicate non-singletons: two minimal sets
		{{"a"}, {"b"}, {"a", "b"}},           // singletons dominate the third set
		{{"a", "a", "a"}},                    // duplicates within one set
		{{"a"}, {"a", "b"}, {"b"}},           // singleton union is the unique minimal
		{{"a", "b"}, {"b", "c"}, {"c", "a"}}, // 3-cycle: three minimal 2-sets
	}
	for i, sets := range cases {
		if err := CheckHittingSets(sets); err != nil {
			t.Errorf("degenerate case %d (%v): %v", i, sets, err)
		}
	}
}

// TestShrinkMinimizes: the minimizer actually shrinks — a property that
// fails whenever a marker fact is present must reduce to (nearly) just the
// marker.
func TestShrinkMinimizes(t *testing.T) {
	ins := Generate(42)
	marker := db.NewFact(ins.D.Schema().Names()[0], make([]string, func() int {
		r, _ := ins.D.Schema().Relation(ins.D.Schema().Names()[0])
		return r.Arity()
	}())...)
	ins.D.InsertFact(marker)
	prop := func(c *Instance) error {
		if c.D.Has(marker) {
			return errTest
		}
		return nil
	}
	min := Shrink(ins, prop)
	if !min.D.Has(marker) {
		t.Fatal("shrinking lost the failure-inducing fact")
	}
	if min.D.Len() != 1 {
		t.Errorf("shrunk D has %d facts, want 1:\n%s", min.D.Len(), min.Repro())
	}
	if min.DG.Len() != 0 {
		t.Errorf("shrunk DG has %d facts, want 0", min.DG.Len())
	}
	if len(min.Edits) != 0 {
		t.Errorf("shrunk instance kept %d edits, want 0", len(min.Edits))
	}
	if min.Seed != ins.Seed {
		t.Errorf("shrinking changed the seed: %d -> %d", ins.Seed, min.Seed)
	}
	if Shrink(Generate(7), prop) == nil {
		t.Error("Shrink on a passing instance returned nil")
	}
}

// TestReproIsSelfContained: the failure report names the seed and renders
// query, databases, and edits.
func TestReproIsSelfContained(t *testing.T) {
	ins := Generate(99)
	r := ins.Repro()
	for _, want := range []string{"seed: 99", "schema:", "query:", "DG", "D (dirty)"} {
		if !contains(r, want) {
			t.Errorf("Repro missing %q:\n%s", want, r)
		}
	}
}

// checkQueryRoundTrip: generated queries survive print → parse → print,
// tying the generator into the parser round-trip property.
func checkQueryRoundTrip(ins *Instance) error {
	if err := roundTripQuery(ins.Query); err != nil {
		return err
	}
	return roundTripUnion(ins.Union)
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "marker present" }

func contains(s, sub string) bool { return strings.Contains(s, sub) }
