package crowd

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

func TestTranscriptLogsAllQuestionTypes(t *testing.T) {
	_, dg := dataset.Figure1()
	var buf strings.Builder
	tr := NewTranscript(NewPerfect(dg), &buf)
	q := dataset.IntroQ1()

	if !tr.VerifyFact(bg, db.NewFact("Teams", "ESP", "EU")) {
		t.Errorf("VerifyFact passthrough wrong")
	}
	if tr.VerifyAnswer(bg, q, db.Tuple{"ESP"}) {
		t.Errorf("VerifyAnswer passthrough wrong")
	}
	qt, _ := dataset.IntroQ2().Embed(db.Tuple{"Andrea Pirlo"})
	if _, ok := tr.Complete(bg, qt, eval.Assignment{"y": "ITA"}); !ok {
		t.Errorf("Complete passthrough wrong")
	}
	if _, ok := tr.Complete(bg, qt, eval.Assignment{"y": "GER"}); ok {
		t.Errorf("unsatisfiable Complete passthrough wrong")
	}
	if _, ok := tr.CompleteResult(bg, q, nil); !ok {
		t.Errorf("CompleteResult passthrough wrong")
	}
	if _, ok := tr.CompleteResult(bg, q, eval.Result(q, dg)); ok {
		t.Errorf("complete CompleteResult passthrough wrong")
	}

	out := buf.String()
	if tr.Lines() != 6 {
		t.Errorf("Lines = %d, want 6", tr.Lines())
	}
	for _, want := range []string{
		"TRUE(Teams(ESP, EU))? -> true",
		"-> false",
		"COMPL(",
		"non-satisfiable",
		"COMPL(Q(D))",
		"complete",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	// Lines are numbered sequentially.
	if !strings.HasPrefix(out, "[001]") || !strings.Contains(out, "[006]") {
		t.Errorf("transcript numbering wrong:\n%s", out)
	}
}
