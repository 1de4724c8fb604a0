// Package noise implements the §7.2 noise model: deriving a dirty database
// D from a ground truth DG under the paper's three knobs (degree of data
// cleanliness, noise skewness, degree of result cleanliness), plus the
// targeted injectors that plant a controlled number of wrong or missing
// answers for a given query (Figures 3d-3f).
package noise

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eval"
)

// Opts configures the §7.2 noise model used to derive a dirty database
// D from a ground truth DG.
type Opts struct {
	// Cleanliness is the degree of data cleanliness: |D∩DG| / (|D| + |DG−D|).
	// The paper varies it in [0.60, 0.95] with default 0.80.
	Cleanliness float64
	// Skew is the noise skewness |D−DG| / (|D−DG| + |DG−D|): 1.0 means only
	// false tuples (deletion experiments), 0.0 only missing tuples (insertion
	// experiments), 0.5 both in equal shares (mixed experiments).
	Skew float64
	// RNG drives the random corruption; required.
	RNG *rand.Rand
}

// Corrupt derives a dirty instance D from the ground truth according to the
// noise parameters: it removes random true tuples ("missing") and inserts
// perturbed false tuples ("wrong") until the requested cleanliness and
// skewness are met. The ground truth is not modified.
//
// With f false and m missing tuples over a truth of N facts, cleanliness is
// (N−m)/(N+f) and skew is f/(f+m); solving for the error budget E = f+m gives
// E = N(1−c) / (1−σ+cσ).
func Corrupt(dg *db.Database, opts Opts) *db.Database {
	if opts.RNG == nil {
		panic("noise: Opts.RNG is required")
	}
	if opts.Cleanliness <= 0 || opts.Cleanliness > 1 {
		panic(fmt.Sprintf("noise: cleanliness %v out of (0, 1]", opts.Cleanliness))
	}
	if opts.Skew < 0 || opts.Skew > 1 {
		panic(fmt.Sprintf("noise: skew %v out of [0, 1]", opts.Skew))
	}
	d := dg.Clone()
	n := float64(dg.Len())
	c, s := opts.Cleanliness, opts.Skew
	budget := n * (1 - c) / (1 - s + c*s)
	f := int(budget*s + 0.5)
	m := int(budget*(1-s) + 0.5)

	facts := dg.Facts()
	opts.RNG.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	// Missing tuples: drop the first m shuffled true facts.
	for i := 0; i < m && i < len(facts); i++ {
		if _, err := d.DeleteFact(facts[i]); err != nil {
			panic(err)
		}
	}
	// Wrong tuples: perturb random true facts into plausible false ones.
	domain := valueDomain(dg)
	inserted := 0
	for guard := 0; inserted < f && guard < 50*f+100; guard++ {
		base := facts[opts.RNG.Intn(len(facts))]
		fake := perturb(base, domain, opts.RNG)
		if dg.Has(fake) || d.Has(fake) {
			continue
		}
		if _, err := d.InsertFact(fake); err != nil {
			panic(err)
		}
		inserted++
	}
	return d
}

// valueDomain collects, per relation and column, the values occurring in the
// database — perturbations stay inside the active domain so that fake tuples
// still join (realistic scraping noise rather than random garbage).
func valueDomain(d *db.Database) map[string][][]string {
	dom := make(map[string]map[int]map[string]bool)
	for _, f := range d.Facts() {
		cols := dom[f.Rel]
		if cols == nil {
			cols = make(map[int]map[string]bool)
			dom[f.Rel] = cols
		}
		for i, v := range f.Args {
			if cols[i] == nil {
				cols[i] = make(map[string]bool)
			}
			cols[i][v] = true
		}
	}
	out := make(map[string][][]string, len(dom))
	for rel, cols := range dom {
		vals := make([][]string, len(cols))
		for i := range vals {
			for v := range cols[i] {
				vals[i] = append(vals[i], v)
			}
			sort.Strings(vals[i]) // deterministic order for seeded sampling
		}
		out[rel] = vals
	}
	return out
}

// perturb changes one random column of a fact to another active-domain value.
func perturb(f db.Fact, domain map[string][][]string, rng *rand.Rand) db.Fact {
	out := f.Clone()
	cols := domain[f.Rel]
	if len(cols) == 0 {
		return out
	}
	col := rng.Intn(len(out.Args))
	vals := cols[col]
	if len(vals) > 1 {
		out.Args[col] = vals[rng.Intn(len(vals))]
	}
	return out
}

// InjectWrong adds false tuples to d so that the result of q over d
// gains (at least) k wrong answers relative to the ground truth, mirroring
// the controlled noise of Figures 3d/3f ("the number of wrong answers among
// the answers in the result Q(D)"). It works by taking a witness of a true
// answer and renaming its head bindings to a team/value that is not a true
// answer. It returns the number of wrong answers actually created. With
// k ≤ 0 it does nothing: it evaluates nothing and draws nothing from rng.
func InjectWrong(d, dg *db.Database, q *cq.Query, k int, rng *rand.Rand) int {
	if k <= 0 {
		return 0
	}
	created := 0
	truth := answerSet(q, dg)
	asgs := eval.Eval(q, dg)
	if len(asgs) == 0 {
		return 0
	}
	domain := valueDomain(dg)
	for guard := 0; created < k && guard < 200*k+200; guard++ {
		a := asgs[rng.Intn(len(asgs))].Clone()
		// Rebind every head variable to a random same-column domain value.
		for _, hv := range q.HeadVars() {
			newVal := sampleHeadValue(q, hv, domain, rng)
			if newVal != "" {
				a[hv] = newVal
			}
		}
		t, ok := a.HeadTuple(q)
		if !ok || truth[t.Key()] {
			continue
		}
		// Check inequalities still hold under the rebinding.
		violated := false
		for _, e := range q.Ineqs {
			if !a.IneqHolds(e) {
				violated = true
				break
			}
		}
		if violated {
			continue
		}
		// The fake witness may not rely on true facts currently missing from
		// d: restoring those would not be "noise". Check before inserting.
		witness := a.Witness(q)
		usable := true
		for _, f := range witness {
			if !d.Has(f) && dg.Has(f) {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		before := eval.AnswerHolds(q, d, t)
		for _, f := range witness {
			if !d.Has(f) {
				if _, err := d.InsertFact(f); err != nil {
					panic(err)
				}
			}
		}
		if !before && eval.AnswerHolds(q, d, t) {
			created++
		}
	}
	return created
}

// sampleHeadValue picks a random domain value for a head variable by finding
// a column where it occurs in some atom.
func sampleHeadValue(q *cq.Query, hv string, domain map[string][][]string, rng *rand.Rand) string {
	for _, atom := range q.Atoms {
		for i, term := range atom.Args {
			if term.IsVar && term.Name == hv {
				vals := domain[atom.Rel]
				if i < len(vals) && len(vals[i]) > 0 {
					return vals[i][rng.Intn(len(vals[i]))]
				}
			}
		}
	}
	return ""
}

// InjectMissing removes true tuples from d so that (at least) k true
// answers of q disappear from the result (Figures 3e/3f). Each missing
// answer loses one fact from every witness; the deleted facts are chosen to
// spare other answers when possible. It returns the number of answers
// actually removed.
func InjectMissing(d, dg *db.Database, q *cq.Query, k int, rng *rand.Rand) int {
	removed := 0
	answers := eval.Result(q, d)
	rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	truth := answerSet(q, dg)
	for _, t := range answers {
		if removed >= k {
			break
		}
		if !truth[t.Key()] {
			continue // already wrong, not a "true answer to remove"
		}
		before := len(eval.Result(q, d))
		killAnswer(d, q, t)
		if eval.AnswerHolds(q, d, t) {
			continue
		}
		after := len(eval.Result(q, d))
		removed += before - after
	}
	return removed
}

// killAnswer deletes one fact from every witness of t in d, preferring the
// most frequent fact across witnesses (fewest deletions).
func killAnswer(d *db.Database, q *cq.Query, t db.Tuple) {
	for {
		ws := eval.Witnesses(q, d, t)
		if len(ws) == 0 {
			return
		}
		freq := make(map[string]int)
		byKey := make(map[string]db.Fact)
		for _, w := range ws {
			for _, f := range w {
				freq[f.Key()]++
				byKey[f.Key()] = f
			}
		}
		bestKey := ""
		for k, n := range freq {
			if bestKey == "" || n > freq[bestKey] || (n == freq[bestKey] && k < bestKey) {
				bestKey = k
			}
		}
		if _, err := d.DeleteFact(byKey[bestKey]); err != nil {
			panic(err)
		}
	}
}

func answerSet(q *cq.Query, d *db.Database) map[string]bool {
	out := make(map[string]bool)
	for _, t := range eval.Result(q, d) {
		out[t.Key()] = true
	}
	return out
}

// ResultCleanliness returns the degree of result cleanliness of §7.2:
// |Q(D)∩Q(DG)| / (|Q(D)| + |Q(DG)−Q(D)|).
func ResultCleanliness(q *cq.Query, d, dg *db.Database) float64 {
	cur := eval.Result(q, d)
	truth := answerSet(q, dg)
	inter := 0
	for _, t := range cur {
		if truth[t.Key()] {
			inter++
		}
	}
	missing := len(truth) - inter
	denom := len(cur) + missing
	if denom == 0 {
		return 1
	}
	return float64(inter) / float64(denom)
}

// DataCleanliness returns the degree of data cleanliness of §7.2:
// |D∩DG| / (|D| + |DG−D|).
func DataCleanliness(d, dg *db.Database) float64 {
	inter := 0
	for _, f := range d.Facts() {
		if dg.Has(f) {
			inter++
		}
	}
	missing := dg.Len() - inter
	denom := d.Len() + missing
	if denom == 0 {
		return 1
	}
	return float64(inter) / float64(denom)
}

// Skewness returns |D−DG| / (|D−DG| + |DG−D|), defaulting to 1 when
// there is no noise at all.
func Skewness(d, dg *db.Database) float64 {
	falseTuples := 0
	for _, f := range d.Facts() {
		if !dg.Has(f) {
			falseTuples++
		}
	}
	missing := 0
	for _, f := range dg.Facts() {
		if !d.Has(f) {
			missing++
		}
	}
	if falseTuples+missing == 0 {
		return 1
	}
	return float64(falseTuples) / float64(falseTuples+missing)
}
