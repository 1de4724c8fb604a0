package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/noise"
	"repro/internal/schema"
)

func tuplesKey(ts []db.Tuple) string {
	out := ""
	for _, t := range ts {
		out += t.Key() + ";"
	}
	return out
}

// TestCleanIntroQ1 runs the full Algorithm 3 on the paper's introductory
// scenario: Q1 over the Figure 1 database. The clean result must equal
// Q1(DG) = {(GER), (ITA)} — the wrong (ESP) removed and the missing (ITA)
// added.
func TestCleanIntroQ1(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(3))})
	q := dataset.IntroQ1()

	r, err := c.Clean(context.Background(), q)
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if got, want := tuplesKey(eval.Result(q, d)), tuplesKey(eval.Result(q, dg)); got != want {
		t.Fatalf("Q1(D') = %v, want Q1(DG) = %v", eval.Result(q, d), eval.Result(q, dg))
	}
	if r.WrongAnswers != 1 {
		t.Errorf("WrongAnswers = %d, want 1 (ESP)", r.WrongAnswers)
	}
	if r.MissingAnswers != 1 {
		t.Errorf("MissingAnswers = %d, want 1 (ITA)", r.MissingAnswers)
	}
	if r.Deletions == 0 || r.Insertions == 0 {
		t.Errorf("report = %+v, want both deletions and insertions", r)
	}
	// Edits must never hurt: every deletion removed a false fact, every
	// insertion added a true one.
	for _, e := range r.Edits {
		if e.Op == db.Delete && dg.Has(e.Fact) {
			t.Errorf("deleted true fact %v", e.Fact)
		}
		if e.Op == db.Insert && !dg.Has(e.Fact) {
			t.Errorf("inserted false fact %v", e.Fact)
		}
	}
}

// TestCleanExample61Cascade reproduces Example 6.1: cleaning Q2 first adds
// Teams(ITA, EU) for the missing (Pirlo), which surfaces the wrong (Totti)
// as a side effect; the next iteration removes the false Goals(Totti, ...)
// tuple. Convergence takes the extra round.
func TestCleanExample61Cascade(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(1))})
	q := dataset.IntroQ2()

	r, err := c.Clean(context.Background(), q)
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	want := eval.Result(q, dg) // {Götze, Pirlo}
	if got := eval.Result(q, d); tuplesKey(got) != tuplesKey(want) {
		t.Fatalf("Q2(D') = %v, want %v", got, want)
	}
	if len(want) != 2 {
		t.Fatalf("ground truth sanity: Q2(DG) = %v, want Götze and Pirlo", want)
	}
	if r.MissingAnswers != 1 {
		t.Errorf("MissingAnswers = %d, want 1 (Pirlo)", r.MissingAnswers)
	}
	if r.WrongAnswers != 1 {
		t.Errorf("WrongAnswers = %d, want 1 (Totti appears after the insertion)", r.WrongAnswers)
	}
	if r.Iterations < 2 {
		t.Errorf("Iterations = %d, want ≥ 2 (the cascade needs a second round)", r.Iterations)
	}
	if d.Has(db.NewFact("Goals", "Francesco Totti", "09.07.06")) {
		t.Errorf("false Goals(Totti) tuple survived")
	}
	if !d.Has(db.NewFact("Teams", "ITA", "EU")) {
		t.Errorf("Teams(ITA, EU) missing after clean")
	}
}

// TestParallelFanOutWithRandomizingOracle: an error-free expert that samples
// missing answers at random proposes them in another order than a perfect
// oracle; every proposal must be processed correctly and the run must still
// converge. The name predates the removal of the §6.2 COMPL(Q(D)) fan-out,
// whose proposals this test once drove; the run is now serial.
func TestParallelFanOutWithRandomizingOracle(t *testing.T) {
	dg := dataset.Soccer(dataset.SoccerOpts{Tournaments: 6})
	q := dataset.SoccerQ3()
	d := dg.Clone()
	rng := rand.New(rand.NewSource(5))
	removed := noise.InjectMissing(d, dg, q, 4, rng)
	if removed < 2 {
		t.Skipf("injector removed only %d answers", removed)
	}
	oracle := crowd.NewExpert(dg, 0, rand.New(rand.NewSource(6)))
	c := New(d, oracle, Config{RNG: rng})
	if _, err := c.Clean(context.Background(), q); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if got, want := eval.Result(q, d), eval.Result(q, dg); tuplesKey(got) != tuplesKey(want) {
		t.Fatalf("Q(D') = %v, want Q(DG) = %v", got, want)
	}
}

// TestCleanEmptyInitialResult: Q(D) empty but Q(DG) not — the first-iteration
// rule of Algorithm 3 must still trigger insertion.
func TestCleanEmptyInitialResult(t *testing.T) {
	s := schema.New(schema.Relation{Name: "R", Attrs: []string{"a", "b"}})
	d := db.New(s)
	dg := db.New(s)
	dg.InsertFact(db.NewFact("R", "x", "y"))
	q := mustQuery(t, "(a) :- R(a, b)")
	c := New(d, crowd.NewPerfect(dg), Config{})
	if _, err := c.Clean(context.Background(), q); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if !eval.AnswerHolds(q, d, db.Tuple{"x"}) {
		t.Errorf("missing answer not added from empty result")
	}
}

// TestCleanAlreadyClean: nothing to do, minimal crowd work, one iteration.
func TestCleanAlreadyClean(t *testing.T) {
	_, dg := dataset.Figure1()
	d := dg.Clone()
	c := New(d, crowd.NewPerfect(dg), Config{})
	q := dataset.IntroQ1()
	r, err := c.Clean(context.Background(), q)
	if err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if r.Deletions != 0 || r.Insertions != 0 {
		t.Errorf("edits on a clean database: %+v", r)
	}
	// Every answer verified once, one null completion — nothing else.
	if r.Crowd.VerifyFactQs != 0 {
		t.Errorf("tuple verifications on a clean database: %+v", r.Crowd)
	}
}

// TestCleanConvergenceRandomized is the Proposition 3.3/3.4 property test:
// for randomized dirty/ground-truth pairs, Clean with a perfect oracle always
// converges with Q(D') = Q(DG), and only correct edits are applied.
func TestCleanConvergenceRandomized(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	queries := []*cq.Query{
		cq.MustParse("(x) :- R(x, y), S(y, z)"),
		cq.MustParse("(x, z) :- R(x, y), S(y, z), x != z"),
		cq.MustParse("(y) :- R(C0, y)"),
	}
	vals := []string{"C0", "C1", "C2", "C3"}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dg := db.New(s)
		d := db.New(s)
		for i := 0; i < 12; i++ {
			f := db.NewFact("R", vals[rng.Intn(4)], vals[rng.Intn(4)])
			g := db.NewFact("S", vals[rng.Intn(4)], vals[rng.Intn(4)])
			if rng.Intn(4) > 0 {
				dg.InsertFact(f)
			}
			if rng.Intn(4) > 0 {
				dg.InsertFact(g)
			}
			if rng.Intn(3) > 0 {
				d.InsertFact(f)
			}
			if rng.Intn(3) > 0 {
				d.InsertFact(g)
			}
		}
		for qi, q := range queries {
			dd := d.Clone()
			c := New(dd, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(seed + 100))})
			r, err := c.Clean(context.Background(), q)
			if err != nil {
				t.Fatalf("seed %d query %d: Clean: %v", seed, qi, err)
			}
			if tuplesKey(eval.Result(q, dd)) != tuplesKey(eval.Result(q, dg)) {
				t.Fatalf("seed %d query %d: Q(D') = %v != Q(DG) = %v",
					seed, qi, eval.Result(q, dd), eval.Result(q, dg))
			}
			for _, e := range r.Edits {
				if e.Op == db.Delete && dg.Has(e.Fact) {
					t.Fatalf("seed %d query %d: deleted true fact %v", seed, qi, e.Fact)
				}
				if e.Op == db.Insert && !dg.Has(e.Fact) {
					t.Fatalf("seed %d query %d: inserted false fact %v", seed, qi, e.Fact)
				}
			}
		}
	}
}

// TestCleanDistanceMonotone: the database distance to DG never increases over
// a perfect-oracle clean (Proposition 3.3 applied to the whole run).
func TestCleanDistanceMonotone(t *testing.T) {
	d, dg := dataset.Figure1()
	before := db.Distance(d, dg)
	c := New(d, crowd.NewPerfect(dg), Config{})
	if _, err := c.Clean(context.Background(), dataset.IntroQ1()); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	after := db.Distance(d, dg)
	if after > before {
		t.Errorf("distance grew: %d -> %d", before, after)
	}
	if after == before {
		t.Errorf("distance unchanged; cleaning should have fixed something")
	}
}

// TestCleanWithImperfectPanel: three error-prone experts under majority vote
// still converge to the truth (the §6.2 setting).
func TestCleanWithImperfectPanel(t *testing.T) {
	d, dg := dataset.Figure1()
	rng := rand.New(rand.NewSource(11))
	panel := crowd.NewPanel(2,
		crowd.NewExpert(dg, 0.1, rand.New(rand.NewSource(rng.Int63()))),
		crowd.NewExpert(dg, 0.1, rand.New(rand.NewSource(rng.Int63()))),
		crowd.NewExpert(dg, 0.1, rand.New(rand.NewSource(rng.Int63()))),
	)
	c := New(d, panel, Config{RNG: rng, MinNulls: 2, MaxIterations: 100})
	q := dataset.IntroQ1()
	if _, err := c.Clean(context.Background(), q); err != nil {
		t.Fatalf("Clean with panel: %v", err)
	}
	if tuplesKey(eval.Result(q, d)) != tuplesKey(eval.Result(q, dg)) {
		t.Errorf("panel clean did not converge: %v vs %v", eval.Result(q, d), eval.Result(q, dg))
	}
}

// TestCleanUnion exercises the UCQ extension on a union over two continents.
func TestCleanUnion(t *testing.T) {
	d, dg := dataset.Figure1()
	u := cq.MustParseUnion(
		"(x) :- Games(d1, x, y, Final, u1), Teams(x, EU) ; (x) :- Games(d1, x, y, Final, u1), Teams(x, SA)")
	c := New(d, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(4))})
	if _, err := c.CleanUnion(context.Background(), u); err != nil {
		t.Fatalf("CleanUnion: %v", err)
	}
	got := eval.ResultUnion(u, d)
	want := eval.ResultUnion(u, dg)
	if tuplesKey(got) != tuplesKey(want) {
		t.Errorf("U(D') = %v, want %v", got, want)
	}
}

// batchRecorder is a perfect oracle that answers TRUE(Q, t)? in batches and
// records each batch it is given.
type batchRecorder struct {
	*crowd.Perfect
	batches []recordedBatch
}

type recordedBatch struct {
	q  *cq.Query
	ts []db.Tuple
}

func (b *batchRecorder) VerifyAnswers(ctx context.Context, q *cq.Query, ts []db.Tuple) []bool {
	b.batches = append(b.batches, recordedBatch{q, append([]db.Tuple(nil), ts...)})
	out := make([]bool, len(ts))
	for i, t := range ts {
		out[i] = b.Perfect.VerifyAnswer(ctx, q, t)
	}
	return out
}

// TestVerifyRoundIsOneBatchPerDisjunct: a round's TRUE(Q, t)? questions go
// to a batching oracle as one call per disjunct. The first disjunct gets
// every answer of U(D); the second gets, in order, the answers the first
// said no to.
func TestVerifyRoundIsOneBatchPerDisjunct(t *testing.T) {
	d, dg := dataset.Figure1()
	u := cq.MustParseUnion(
		"(x) :- Games(d1, x, y, Final, u1), Teams(x, EU) ; (x) :- Games(d1, x, y, Final, u1), Teams(x, SA)")
	first := eval.ResultUnion(u, d)
	oracle := &batchRecorder{Perfect: crowd.NewPerfect(dg)}
	c := New(d, oracle, Config{RNG: rand.New(rand.NewSource(4))})
	rep, err := c.CleanUnion(context.Background(), u)
	if err != nil {
		t.Fatalf("CleanUnion: %v", err)
	}
	if tuplesKey(eval.ResultUnion(u, d)) != tuplesKey(eval.ResultUnion(u, dg)) {
		t.Errorf("U(D') = %v, want %v", eval.ResultUnion(u, d), eval.ResultUnion(u, dg))
	}
	if len(oracle.batches) < 2 {
		t.Fatalf("the cleaner posed %d batches, want at least the first round's 2", len(oracle.batches))
	}
	b0, b1 := oracle.batches[0], oracle.batches[1]
	if b0.q != u.Disjuncts[0] || tuplesKey(b0.ts) != tuplesKey(first) {
		t.Errorf("first batch = %s %v, want disjunct 0 with U(D) = %v", b0.q, b0.ts, first)
	}
	var no []db.Tuple
	for _, tu := range first {
		if !oracle.Perfect.VerifyAnswer(context.Background(), u.Disjuncts[0], tu) {
			no = append(no, tu)
		}
	}
	if b1.q != u.Disjuncts[1] || tuplesKey(b1.ts) != tuplesKey(no) {
		t.Errorf("second batch = %s %v, want disjunct 1 with %v", b1.q, b1.ts, no)
	}
	asked := 0
	for _, b := range oracle.batches {
		asked += len(b.ts)
	}
	if rep.Crowd.VerifyAnswerQs < asked {
		t.Errorf("report counts %d TRUE(Q, t)? questions, the batches held %d", rep.Crowd.VerifyAnswerQs, asked)
	}
}

// TestCleanUnionSingleDisjunctMatchesClean: a 1-disjunct union behaves like
// the plain Clean.
func TestCleanUnionSingleDisjunctMatchesClean(t *testing.T) {
	q := dataset.IntroQ1()
	u, err := cq.NewUnion(q)
	if err != nil {
		t.Fatal(err)
	}
	d1, dg := dataset.Figure1()
	c1 := New(d1, crowd.NewPerfect(dg), Config{RNG: rand.New(rand.NewSource(7))})
	if _, err := c1.Clean(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	d2, dg2 := dataset.Figure1()
	c2 := New(d2, crowd.NewPerfect(dg2), Config{RNG: rand.New(rand.NewSource(7))})
	if _, err := c2.CleanUnion(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	if tuplesKey(eval.Result(q, d1)) != tuplesKey(eval.Result(q, d2)) {
		t.Errorf("union and plain clean disagree")
	}
}

// TestCleanMaxIterationsGuard: an adversarial oracle that always lies about
// answers cannot stall the cleaner forever.
func TestCleanMaxIterationsGuard(t *testing.T) {
	d, dg := dataset.Figure1()
	liar := crowd.NewExpert(dg, 1.0, rand.New(rand.NewSource(1)))
	c := New(d, liar, Config{MaxIterations: 5})
	_, err := c.Clean(context.Background(), dataset.IntroQ1())
	if err == nil {
		t.Skip("liar happened to terminate (possible depending on flow)")
	}
	if err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

// TestCleanReportStringsExample prints nothing but ensures fmt compatibility
// of report fields used by the experiment harness.
func TestCleanReportFields(t *testing.T) {
	d, dg := dataset.Figure1()
	c := New(d, crowd.NewPerfect(dg), Config{})
	r, err := c.Clean(context.Background(), dataset.IntroQ1())
	if err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprintf("%+v", r)
	if r.Crowd.Total() < r.Crowd.Closed() {
		t.Errorf("stats inconsistent: %+v", r.Crowd)
	}
	if r.Iterations < 1 {
		t.Errorf("Iterations = %d", r.Iterations)
	}
}
