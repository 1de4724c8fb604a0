// Package provenance holds the Boolean why-provenance of a query answer. The
// paper grounds its witness machinery in provenance semirings ("a witness can
// in fact be extracted from a semiring of polynomials", §2, citing Green et
// al.); this package realizes that connection: the provenance of an answer is
// the DNF over fact variables whose disjuncts are the answer's witnesses, and
// the caller builds it from those witnesses.
//
// On top of the DNF it computes exact tuple influence — the probability that
// the answer's truth flips with the tuple, under independent tuple
// probabilities — which backs the §4 alternative deletion heuristic "asking
// the crowd first about influential tuples" (the paper's [40], Kanagal et
// al.'s sensitivity analysis).
package provenance

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
)

// DNF is the why-provenance of an answer: a disjunction of conjunctions of
// fact keys (each conjunct is one witness). The zero value is the constant
// false (no witnesses).
type DNF struct {
	// Terms are the conjuncts; each term lists distinct fact keys, sorted.
	Terms [][]string
}

// Variables returns the sorted distinct fact keys of the formula.
func (p *DNF) Variables() []string {
	set := make(map[string]bool)
	for _, term := range p.Terms {
		for _, v := range term {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Influence returns the influence of each fact on the formula: the
// probability that the formula's value flips with the fact, i.e.
// P(true | fact true) − P(true | fact false), under independent per-fact
// probabilities (0.5 by default). Monotone DNF makes this non-negative. Both
// conditionals substitute the fact into the formula, and every expansion
// shares one memo.
func (p *DNF) Influence(prob map[string]float64) map[string]float64 {
	e := newExpander(p, prob)
	out := make(map[string]float64, len(e.vars))
	for v, key := range e.vars {
		out[key] = e.prob(substitute(e.terms, int32(v), true)) - e.prob(substitute(e.terms, int32(v), false))
	}
	return out
}

// expander computes the probabilities of residual formulas of one DNF, whose
// variables it numbers in key order. A residual is a list of terms, each a
// sorted slice of variable numbers; expanding one first puts it in canonical
// form: terms sorted by length and then lexicographically, with duplicates
// and supersets of other terms absorbed. A residual splits into
// fact-disjoint components, which combine as independent events, and is
// otherwise expanded on its most frequent variable. Both choices read the
// canonical form, and every result is memoized by it, so a probability
// depends only on the formula and not on the order of its terms, which
// follows the witness enumeration.
type expander struct {
	vars  []string  // variable number -> fact key
	p     []float64 // variable number -> probability
	terms [][]int32 // the formula
	memo  map[string]float64
	key   []byte
}

func newExpander(d *DNF, prob map[string]float64) *expander {
	e := &expander{vars: d.Variables(), memo: make(map[string]float64)}
	num := make(map[string]int32, len(e.vars))
	e.p = make([]float64, len(e.vars))
	for i, v := range e.vars {
		num[v] = int32(i)
		e.p[i] = 0.5
		if q, ok := prob[v]; ok {
			e.p[i] = q
		}
	}
	e.terms = make([][]int32, len(d.Terms))
	for i, t := range d.Terms {
		term := make([]int32, len(t))
		for j, v := range t {
			term[j] = num[v]
		}
		slices.Sort(term)
		e.terms[i] = slices.Compact(term)
	}
	return e
}

// prob returns the probability that some term of the residual has every
// variable true. It reorders terms in place but never writes to a term.
func (e *expander) prob(terms [][]int32) float64 {
	terms = canonical(terms)
	switch {
	case len(terms) == 0:
		return 0
	case len(terms[0]) == 0:
		return 1 // an empty term is satisfied
	}
	e.key = e.key[:0]
	for _, t := range terms {
		for _, v := range t {
			e.key = binary.LittleEndian.AppendUint32(e.key, uint32(v))
		}
		e.key = append(e.key, 0xff, 0xff, 0xff, 0xff)
	}
	if r, ok := e.memo[string(e.key)]; ok {
		return r
	}
	key := string(e.key)
	var r float64
	if comps := components(terms); len(comps) > 1 {
		none := 1.0
		for _, c := range comps {
			none *= 1 - e.prob(c)
		}
		r = 1 - none
	} else {
		v := mostFrequent(terms)
		r = e.p[v]*e.prob(substitute(terms, v, true)) + (1-e.p[v])*e.prob(substitute(terms, v, false))
	}
	e.memo[key] = r
	return r
}

// canonical sorts the terms by length, then lexicographically, and drops
// every term that contains another (a duplicate included): in a monotone DNF
// the smaller term absorbs it.
func canonical(terms [][]int32) [][]int32 {
	slices.SortFunc(terms, func(a, b []int32) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	out := terms[:0]
	for _, t := range terms {
		if !slices.ContainsFunc(out, func(k []int32) bool { return isSubset(k, t) }) {
			out = append(out, t)
		}
	}
	return out
}

// components splits canonical terms into groups that share no variable, each
// in canonical order, ordered by their first term.
func components(terms [][]int32) [][][]int32 {
	parent := make(map[int32]int32)
	var find func(v int32) int32
	find = func(v int32) int32 {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	for _, t := range terms {
		for _, v := range t[1:] {
			if a, b := find(t[0]), find(v); a != b {
				parent[b] = a
			}
		}
	}
	var comps [][][]int32
	index := make(map[int32]int) // root -> position in comps
	for _, t := range terms {
		root := find(t[0])
		i, ok := index[root]
		if !ok {
			i = len(comps)
			index[root] = i
			comps = append(comps, nil)
		}
		comps[i] = append(comps[i], t)
	}
	return comps
}

// mostFrequent returns the variable in the most terms, the lowest-numbered
// one on ties.
func mostFrequent(terms [][]int32) int32 {
	count := make(map[int32]int)
	best := int32(-1)
	for _, t := range terms {
		for _, v := range t {
			count[v]++
			if n := count[v]; best == -1 || n > count[best] || n == count[best] && v < best {
				best = v
			}
		}
	}
	return best
}

// substitute returns the residual of the terms with variable v fixed: true
// removes v from every term, false drops every term holding it.
func substitute(terms [][]int32, v int32, val bool) [][]int32 {
	out := make([][]int32, 0, len(terms))
	for _, t := range terms {
		i, ok := slices.BinarySearch(t, v)
		switch {
		case !ok:
			out = append(out, t)
		case val:
			out = append(out, append(slices.Clip(t[:i]), t[i+1:]...))
		}
	}
	return out
}

// MostInfluential returns the fact key with the highest influence, breaking
// ties lexicographically. Empty formula returns "".
func (p *DNF) MostInfluential(prob map[string]float64) string {
	inf := p.Influence(prob)
	best := ""
	for _, v := range p.Variables() {
		if best == "" || inf[v] > inf[best] || (inf[v] == inf[best] && v < best) {
			best = v
		}
	}
	return best
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int32) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// String renders the formula as (k1 ∧ k2) ∨ (k3).
func (p *DNF) String() string {
	if len(p.Terms) == 0 {
		return "false"
	}
	parts := make([]string, len(p.Terms))
	for i, term := range p.Terms {
		parts[i] = "(" + strings.Join(term, " ∧ ") + ")"
	}
	return strings.Join(parts, " ∨ ")
}
