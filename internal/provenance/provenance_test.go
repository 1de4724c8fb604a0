package provenance

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

// probability is P(p true) as the expander behind Influence computes it.
func probability(p *DNF, prob map[string]float64) float64 {
	e := newExpander(p, prob)
	return e.prob(e.terms)
}

// holds evaluates p under a truth assignment; facts absent from the map
// count as false.
func holds(p *DNF, truth map[string]bool) bool {
	for _, term := range p.Terms {
		all := true
		for _, v := range term {
			all = all && truth[v]
		}
		if all {
			return true
		}
	}
	return false
}

// espProvenance is the why-provenance of answer ESP to the intro query over
// Figure 1: one term per witness, each term the witness's sorted fact keys.
func espProvenance() *DNF {
	d, _ := dataset.Figure1()
	p := &DNF{}
	for _, w := range eval.Witnesses(dataset.IntroQ1(), d, db.Tuple{"ESP"}) {
		var term []string
		for _, f := range w {
			term = append(term, f.Key())
		}
		slices.Sort(term)
		p.Terms = append(p.Terms, term)
	}
	return p
}

func TestOfESPWitnesses(t *testing.T) {
	p := espProvenance()
	if len(p.Terms) != 6 {
		t.Fatalf("terms = %d, want 6 (Example 4.6 witnesses)", len(p.Terms))
	}
	teamKey := db.NewFact("Teams", "ESP", "EU").Key()
	for _, term := range p.Terms {
		if !slices.Contains(term, teamKey) {
			t.Errorf("term %v misses the Teams fact", term)
		}
	}
	if len(p.Variables()) != 5 {
		t.Errorf("variables = %d, want 5 distinct facts", len(p.Variables()))
	}
}

func TestProbabilityExactSmall(t *testing.T) {
	// (a ∧ b) ∨ c with p = 0.5 each: P = 1 - (1-0.25)(1-0.5) = 0.625.
	p := &DNF{Terms: [][]string{{"a", "b"}, {"c"}}}
	got := probability(p, nil)
	if math.Abs(got-0.625) > 1e-9 {
		t.Errorf("Probability = %v, want 0.625", got)
	}
	// Non-uniform probabilities: a=1, b=1, c=0 -> formula surely true.
	got2 := probability(p, map[string]float64{"a": 1, "b": 1, "c": 0})
	if math.Abs(got2-1) > 1e-9 {
		t.Errorf("Probability = %v, want 1", got2)
	}
	// Empty formula is false.
	if got := probability(&DNF{}, nil); got != 0 {
		t.Errorf("empty Probability = %v", got)
	}
}

// TestProbabilityAgainstBruteForce enumerates all assignments on random
// formulas and compares with the Shannon-expansion computation.
func TestProbabilityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vars := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 60; trial++ {
		var p DNF
		nTerms := 1 + rng.Intn(4)
		for i := 0; i < nTerms; i++ {
			var term []string
			for _, v := range vars {
				if rng.Intn(3) == 0 {
					term = append(term, v)
				}
			}
			if len(term) == 0 {
				term = []string{vars[rng.Intn(5)]}
			}
			p.Terms = append(p.Terms, term)
		}
		prob := map[string]float64{}
		for _, v := range vars {
			prob[v] = rng.Float64()
		}
		// Brute force over 2^5 assignments.
		want := 0.0
		for mask := 0; mask < 32; mask++ {
			truth := map[string]bool{}
			weight := 1.0
			for i, v := range vars {
				if mask&(1<<i) != 0 {
					truth[v] = true
					weight *= prob[v]
				} else {
					weight *= 1 - prob[v]
				}
			}
			if holds(&p, truth) {
				want += weight
			}
		}
		got := probability(&p, prob)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Probability = %v, brute force = %v (terms %v)", trial, got, want, p.Terms)
		}
	}
}

// TestDisjointTermsClosedForm: 20 fact-disjoint two-fact terms hold 40
// variables, past any expansion over the whole assignment space, yet split
// into independent components with closed forms:
// P = 1 − Π(1 − p(a_i)·p(b_i)) and
// influence(a_i) = p(b_i) · Π_{j≠i}(1 − p(a_j)·p(b_j)).
func TestDisjointTermsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 20
	var p DNF
	prob := map[string]float64{}
	pair := make([]float64, n) // p(a_i)·p(b_i)
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i)
		p.Terms = append(p.Terms, []string{a, b})
		prob[a], prob[b] = rng.Float64(), rng.Float64()
		pair[i] = prob[a] * prob[b]
	}
	none := 1.0
	for _, q := range pair {
		none *= 1 - q
	}
	if got := probability(&p, prob); math.Abs(got-(1-none)) > 1e-12 {
		t.Errorf("Probability = %v, closed form %v", got, 1-none)
	}
	inf := p.Influence(prob)
	for i := 0; i < n; i++ {
		others := 1.0
		for j, q := range pair {
			if j != i {
				others *= 1 - q
			}
		}
		a, b := fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i)
		if want := prob[b] * others; math.Abs(inf[a]-want) > 1e-12 {
			t.Errorf("influence(%s) = %v, closed form %v", a, inf[a], want)
		}
		if want := prob[a] * others; math.Abs(inf[b]-want) > 1e-12 {
			t.Errorf("influence(%s) = %v, closed form %v", b, inf[b], want)
		}
	}
}

// TestTermOrderIgnored: the cleaner builds a formula's terms in witness
// enumeration order, so permuting them must leave every probability and
// influence bit-for-bit equal.
func TestTermOrderIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p DNF
	prob := map[string]float64{}
	for i := 0; i < 16; i++ {
		var term []string
		for _, j := range rng.Perm(12)[:2+rng.Intn(2)] {
			term = append(term, fmt.Sprintf("v%02d", j))
		}
		slices.Sort(term)
		p.Terms = append(p.Terms, term)
	}
	for _, v := range p.Variables() {
		prob[v] = rng.Float64()
	}
	want, wantInf := probability(&p, prob), p.Influence(prob)
	for trial := 0; trial < 20; trial++ {
		q := &DNF{Terms: slices.Clone(p.Terms)}
		rng.Shuffle(len(q.Terms), func(i, j int) { q.Terms[i], q.Terms[j] = q.Terms[j], q.Terms[i] })
		if got := probability(q, prob); got != want {
			t.Fatalf("trial %d: Probability = %v, want %v", trial, got, want)
		}
		if got := q.Influence(prob); !maps.Equal(got, wantInf) {
			t.Fatalf("trial %d: Influence = %v, want %v", trial, got, wantInf)
		}
	}
}

func TestInfluenceOrdering(t *testing.T) {
	// c alone carries a term; a and b only matter together: c is the most
	// influential at p = 0.5.
	p := &DNF{Terms: [][]string{{"a", "b"}, {"c"}}}
	inf := p.Influence(nil)
	if inf["c"] <= inf["a"] || inf["c"] <= inf["b"] {
		t.Errorf("influence = %v, want c highest", inf)
	}
	if got := p.MostInfluential(nil); got != "c" {
		t.Errorf("MostInfluential = %q, want c", got)
	}
	if got := (&DNF{}).MostInfluential(nil); got != "" {
		t.Errorf("empty MostInfluential = %q", got)
	}
}

func TestInfluenceESP(t *testing.T) {
	// On the ESP provenance, the Teams fact appears in every witness and must
	// dominate the influence ranking (it is counterfactual).
	p := espProvenance()
	teamKey := db.NewFact("Teams", "ESP", "EU").Key()
	if got := p.MostInfluential(nil); got != teamKey {
		t.Errorf("MostInfluential = %v, want the Teams fact", got)
	}
	inf := p.Influence(nil)
	for v, i := range inf {
		if v != teamKey && i >= inf[teamKey] {
			t.Errorf("influence(%v) = %v ≥ influence(Teams) = %v", v, i, inf[teamKey])
		}
	}
}

func TestStringRendering(t *testing.T) {
	if got := (&DNF{}).String(); got != "false" {
		t.Errorf("empty String = %q", got)
	}
	p := &DNF{Terms: [][]string{{"k1"}}}
	if got := p.String(); got != "(k1)" {
		t.Errorf("String = %q", got)
	}
}
