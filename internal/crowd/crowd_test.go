package crowd

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/obs"
)

func TestPerfectVerifyFact(t *testing.T) {
	_, dg := dataset.Figure1()
	o := NewPerfect(dg)
	if !o.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU")) {
		t.Errorf("Teams(ESP, EU) should be true (Example 4.6: t3 ∈ DG)")
	}
	if o.VerifyFact(bg, db.NewFact("Games", "25.06.78", "ESP", "NED", "Final", "1:0")) {
		t.Errorf("the 1978 ESP final should be false (t5 ∉ DG)")
	}
	if !o.VerifyFact(bg, db.NewFact("Teams", "ITA", "EU")) {
		t.Errorf("Teams(ITA, EU) should be true in DG")
	}
}

func TestPerfectVerifyAnswer(t *testing.T) {
	_, dg := dataset.Figure1()
	o := NewPerfect(dg)
	q := dataset.IntroQ1()
	if o.VerifyAnswer(bg, q, db.Tuple{"ESP"}) {
		t.Errorf("(ESP) should be a wrong answer")
	}
	if !o.VerifyAnswer(bg, q, db.Tuple{"GER"}) || !o.VerifyAnswer(bg, q, db.Tuple{"ITA"}) {
		t.Errorf("(GER) and (ITA) should be true answers")
	}
}

func TestPerfectComplete(t *testing.T) {
	_, dg := dataset.Figure1()
	o := NewPerfect(dg)
	qt, err := dataset.IntroQ2().Embed(db.Tuple{"Andrea Pirlo"})
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	// The Example 5.4 α1 prefix is satisfiable w.r.t. DG; completion must
	// extend it to the full witness.
	partial := eval.Assignment{"y": "ITA", "d": "09.07.06"}
	full, ok := o.Complete(bg, qt, partial)
	if !ok {
		t.Fatalf("Complete: not satisfiable, want completion")
	}
	if full["v"] != "FRA" || full["u"] != "5:3" || full["z"] != "1979" {
		t.Errorf("completion = %v", full)
	}
	// A non-satisfiable partial assignment (Pirlo playing for GER).
	if _, ok := o.Complete(bg, qt, eval.Assignment{"y": "GER"}); ok {
		t.Errorf("Complete should fail for y -> GER")
	}
}

func TestPerfectCompleteResult(t *testing.T) {
	d, dg := dataset.Figure1()
	o := NewPerfect(dg)
	q := dataset.IntroQ1()
	cur := eval.Result(q, d) // {ESP, GER}
	missing, ok := o.CompleteResult(bg, q, cur)
	if !ok || !missing.Equal(db.Tuple{"ITA"}) {
		t.Errorf("CompleteResult = %v, %v; want (ITA)", missing, ok)
	}
	full := eval.Result(q, dg)
	if _, ok := o.CompleteResult(bg, q, full); ok {
		t.Errorf("CompleteResult on complete result: want ok = false")
	}
}

func TestCountingStats(t *testing.T) {
	_, dg := dataset.Figure1()
	c := NewCounting(NewPerfect(dg))
	q := dataset.IntroQ1()
	c.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU"))
	c.VerifyAnswer(bg, q, db.Tuple{"GER"})
	qt, _ := dataset.IntroQ2().Embed(db.Tuple{"Andrea Pirlo"})
	partial := eval.Assignment{"y": "ITA"}
	full, ok := c.Complete(bg, qt, partial)
	if !ok {
		t.Fatalf("Complete failed")
	}
	wantFilled := len(full) - len(partial)
	c.CompleteResult(bg, q, nil)

	s := c.Snapshot()
	if s.VerifyFactQs != 1 || s.VerifyAnswerQs != 1 || s.CompleteQs != 1 || s.CompleteResultQs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.VariablesFilled != wantFilled+1 { // +1 for the 1-ary missing answer
		t.Errorf("VariablesFilled = %d, want %d", s.VariablesFilled, wantFilled+1)
	}
	if s.Closed() != 2 || s.Total() != 2+wantFilled+1 {
		t.Errorf("Closed = %d, Total = %d", s.Closed(), s.Total())
	}
}

// batcher answers TRUE(Q, t)? batches from a perfect oracle, counting calls.
type batcher struct {
	*Perfect
	calls int
}

func (b *batcher) VerifyAnswers(ctx context.Context, q *cq.Query, ts []db.Tuple) []bool {
	b.calls++
	out := make([]bool, len(ts))
	for i, t := range ts {
		out[i] = b.Perfect.VerifyAnswer(ctx, q, t)
	}
	return out
}

// TestCountingVerifyAnswers: Counting hands a batching oracle the whole
// batch in one call, and asks any other oracle one question at a time,
// stopping at a cancelled context. Both count every question asked; the
// latency histogram takes one sample per oracle call.
func TestCountingVerifyAnswers(t *testing.T) {
	_, dg := dataset.Figure1()
	q := dataset.IntroQ1()
	ts := []db.Tuple{{"GER"}, {"ESP"}, {"BRA"}, {"ITA"}}
	want := []bool{true, false, false, true} // ESP won one real final; BRA is not in EU

	b := &batcher{Perfect: NewPerfect(dg)}
	c := NewCounting(b)
	c.Obs = obs.New()
	if got := c.VerifyAnswers(bg, q, ts); !reflect.DeepEqual(got, want) {
		t.Errorf("batched VerifyAnswers = %v, want %v", got, want)
	}
	if b.calls != 1 {
		t.Errorf("batching oracle got %d calls, want 1", b.calls)
	}
	if s := c.Snapshot(); s.VerifyAnswerQs != len(ts) {
		t.Errorf("VerifyAnswerQs = %d, want %d", s.VerifyAnswerQs, len(ts))
	}
	if n := c.Obs.Counter(MetricVerifyAnswer); n != int64(len(ts)) {
		t.Errorf("%s = %d, want %d", MetricVerifyAnswer, n, len(ts))
	}
	if n := c.Obs.Snapshot().Histograms[MetricQuestionSeconds].Count; n != 1 {
		t.Errorf("%s took %d samples for one batch, want 1", MetricQuestionSeconds, n)
	}

	c = NewCounting(NewPerfect(dg))
	if got := c.VerifyAnswers(bg, q, ts); !reflect.DeepEqual(got, want) {
		t.Errorf("one-at-a-time VerifyAnswers = %v, want %v", got, want)
	}
	if s := c.Snapshot(); s.VerifyAnswerQs != len(ts) {
		t.Errorf("VerifyAnswerQs = %d, want %d", s.VerifyAnswerQs, len(ts))
	}

	ctx, cancel := context.WithCancel(bg)
	cancel()
	c = NewCounting(NewPerfect(dg))
	for i, v := range c.VerifyAnswers(ctx, q, ts) {
		if !v {
			t.Errorf("cancelled batch answer %d = false, want the edit-free default true", i)
		}
	}
	if s := c.Snapshot(); s.VerifyAnswerQs != 0 {
		t.Errorf("a cancelled batch asked %d questions, want 0", s.VerifyAnswerQs)
	}
}

func TestExpertZeroErrorMatchesPerfect(t *testing.T) {
	_, dg := dataset.Figure1()
	e := NewExpert(dg, 0, rand.New(rand.NewSource(1)))
	p := NewPerfect(dg)
	q := dataset.IntroQ1()
	facts := []db.Fact{
		db.NewFact("Teams", "ESP", "EU"),
		db.NewFact("Teams", "BRA", "EU"),
		db.NewFact("Games", "13.07.14", "GER", "ARG", "Final", "1:0"),
	}
	for _, f := range facts {
		if e.VerifyFact(bg, f) != p.VerifyFact(bg, f) {
			t.Errorf("expert differs from perfect on %v", f)
		}
	}
	for _, tp := range []db.Tuple{{"GER"}, {"ESP"}, {"ITA"}} {
		if e.VerifyAnswer(bg, q, tp) != p.VerifyAnswer(bg, q, tp) {
			t.Errorf("expert differs from perfect on answer %v", tp)
		}
	}
}

func TestExpertErrorRateApproximate(t *testing.T) {
	_, dg := dataset.Figure1()
	e := NewExpert(dg, 0.3, rand.New(rand.NewSource(42)))
	f := db.NewFact("Teams", "ESP", "EU") // true fact
	wrong := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if !e.VerifyFact(bg, f) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("observed error rate = %v, want ≈ 0.3", rate)
	}
}

func TestExpertCompleteResultRandomizes(t *testing.T) {
	_, dg := dataset.Figure1()
	e := NewExpert(dg, 0, rand.New(rand.NewSource(7)))
	q := cq.MustParse("(x) :- Teams(x, EU)")
	seen := make(map[string]bool)
	for i := 0; i < 60; i++ {
		tp, ok := e.CompleteResult(bg, q, nil)
		if !ok {
			t.Fatalf("CompleteResult failed")
		}
		seen[tp.Key()] = true
	}
	if len(seen) < 2 {
		t.Errorf("expert always returned the same missing answer; want sampling")
	}
}

func TestPanelMajorityOutvotesFaultyExpert(t *testing.T) {
	_, dg := dataset.Figure1()
	rng := rand.New(rand.NewSource(3))
	// One always-wrong expert between two perfect ones: majority must win.
	liar := NewExpert(dg, 1.0, rng)
	panel := NewPanel(2, NewPerfect(dg), liar, NewPerfect(dg))
	if !panel.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU")) {
		t.Errorf("panel verdict wrong on true fact")
	}
	if panel.VerifyFact(bg, db.NewFact("Teams", "BRA", "EU")) {
		t.Errorf("panel verdict wrong on false fact")
	}
}

func TestPanelEarlyStopCounts(t *testing.T) {
	_, dg := dataset.Figure1()
	panel := NewPanel(2, NewPerfect(dg), NewPerfect(dg), NewPerfect(dg))
	panel.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU"))
	// Two agreeing perfect answers suffice; the third expert is never asked.
	if panel.Snapshot().VerifyFactQs != 2 {
		t.Errorf("VerifyFactQs = %d, want 2 (early stop)", panel.Snapshot().VerifyFactQs)
	}
}

func TestPanelCompleteVerifiesOpenAnswer(t *testing.T) {
	_, dg := dataset.Figure1()
	panel := NewPanel(2, NewPerfect(dg), NewPerfect(dg), NewPerfect(dg))
	qt, _ := dataset.IntroQ2().Embed(db.Tuple{"Andrea Pirlo"})
	full, ok := panel.Complete(bg, qt, eval.Assignment{"y": "ITA"})
	if !ok {
		t.Fatalf("panel Complete failed")
	}
	if full["d"] != "09.07.06" {
		t.Errorf("completion = %v", full)
	}
	if panel.Snapshot().CompleteQs != 1 {
		t.Errorf("CompleteQs = %d, want 1", panel.Snapshot().CompleteQs)
	}
	// Open answer must have been re-verified with closed fact questions:
	// 4 atoms × 2 agreeing votes.
	if panel.Snapshot().VerifyFactQs != 8 {
		t.Errorf("VerifyFactQs = %d, want 8", panel.Snapshot().VerifyFactQs)
	}
}

func TestPanelCompleteResultVerifies(t *testing.T) {
	d, dg := dataset.Figure1()
	q := dataset.IntroQ1()
	panel := NewPanel(2, NewPerfect(dg), NewPerfect(dg), NewPerfect(dg))
	cur := eval.Result(q, d)
	missing, ok := panel.CompleteResult(bg, q, cur)
	if !ok || !missing.Equal(db.Tuple{"ITA"}) {
		t.Errorf("CompleteResult = %v, %v", missing, ok)
	}
	if panel.Snapshot().VerifyAnswerQs != 2 {
		t.Errorf("VerifyAnswerQs = %d, want 2 (verification vote)", panel.Snapshot().VerifyAnswerQs)
	}
	// All-failing experts: panel reports complete.
	rng := rand.New(rand.NewSource(4))
	bad := NewPanel(2, NewExpert(dg, 1, rng), NewExpert(dg, 1, rng), NewExpert(dg, 1, rng))
	if _, ok := bad.CompleteResult(bg, q, cur); ok {
		t.Errorf("all-error panel should fail to complete")
	}
}

func TestPanelAgreeValidation(t *testing.T) {
	_, dg := dataset.Figure1()
	defer func() {
		if recover() == nil {
			t.Errorf("NewPanel with agree > experts did not panic")
		}
	}()
	NewPanel(3, NewPerfect(dg))
}

func TestInteractiveVerifyFact(t *testing.T) {
	in := strings.NewReader("maybe\ny\n")
	var out strings.Builder
	o := NewInteractive(in, &out)
	if !o.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU")) {
		t.Errorf("want true after 'y'")
	}
	if !strings.Contains(out.String(), "Teams(ESP, EU)") {
		t.Errorf("question not printed: %q", out.String())
	}
	if !strings.Contains(out.String(), "please answer y or n") {
		t.Errorf("invalid input not re-prompted")
	}
}

func TestInteractiveEOFMeansNo(t *testing.T) {
	o := NewInteractive(strings.NewReader(""), &strings.Builder{})
	if o.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU")) {
		t.Errorf("EOF should mean no")
	}
}

func TestInteractiveComplete(t *testing.T) {
	q := cq.MustParse("(x, y) :- Teams(x, y)")
	in := strings.NewReader("ITA\nEU\n")
	var out strings.Builder
	o := NewInteractive(in, &out)
	full, ok := o.Complete(bg, q, eval.Assignment{})
	if !ok || full["x"] != "ITA" || full["y"] != "EU" {
		t.Errorf("Complete = %v, %v", full, ok)
	}
	// Empty line = impossible.
	o2 := NewInteractive(strings.NewReader("\n"), &strings.Builder{})
	if _, ok := o2.Complete(bg, q, eval.Assignment{}); ok {
		t.Errorf("empty answer should mean non-satisfiable")
	}
}

func TestInteractiveCompleteResult(t *testing.T) {
	q := cq.MustParse("(x, y) :- Teams(x, y)")
	o := NewInteractive(strings.NewReader("ITA, EU\n"), &strings.Builder{})
	tp, ok := o.CompleteResult(bg, q, []db.Tuple{{"GER", "EU"}})
	if !ok || !tp.Equal(db.Tuple{"ITA", "EU"}) {
		t.Errorf("CompleteResult = %v, %v", tp, ok)
	}
	// Wrong arity -> treated as complete.
	o2 := NewInteractive(strings.NewReader("justone\n"), &strings.Builder{})
	if _, ok := o2.CompleteResult(bg, q, nil); ok {
		t.Errorf("arity mismatch should be rejected")
	}
	// Empty -> complete.
	o3 := NewInteractive(strings.NewReader("\n"), &strings.Builder{})
	if _, ok := o3.CompleteResult(bg, q, nil); ok {
		t.Errorf("empty line should mean complete")
	}
}

// degradingOracle is a Perfect oracle that also reports degraded answers.
type degradingOracle struct {
	*Perfect
	degraded int
}

func (d *degradingOracle) DegradedAnswers() int { return d.degraded }

func TestCountingForwardsDegradedAnswers(t *testing.T) {
	_, dg := dataset.Figure1()
	inner := &degradingOracle{Perfect: NewPerfect(dg), degraded: 3}
	if got := NewCounting(inner).DegradedAnswers(); got != 3 {
		t.Errorf("Counting.DegradedAnswers = %d, want 3 (wrapper must not hide the inner count)", got)
	}
	// Oracles without degradation read as zero.
	if got := NewCounting(NewPerfect(dg)).DegradedAnswers(); got != 0 {
		t.Errorf("DegradedAnswers over a plain oracle = %d, want 0", got)
	}
}
