package sqlfe

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

func TestParseUnionBasic(t *testing.T) {
	d, _ := dataset.Figure1()
	u, err := ParseUnion(d.Schema(), `
		SELECT name FROM Teams WHERE continent = 'EU'
		UNION
		SELECT name FROM Teams WHERE continent = 'SA'`)
	if err != nil {
		t.Fatalf("ParseUnion: %v", err)
	}
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
	got := eval.ResultUnion(u, d)
	if len(got) != 4 {
		t.Errorf("union result = %v, want all 4 teams", got)
	}
}

func TestParseUnionAll(t *testing.T) {
	d, _ := dataset.Figure1()
	u, err := ParseUnion(d.Schema(), `
		SELECT player FROM Goals UNION ALL SELECT name FROM Players`)
	if err != nil {
		t.Fatalf("ParseUnion: %v", err)
	}
	got := eval.ResultUnion(u, d)
	if len(got) != 3 { // the three players; scorers are a subset
		t.Errorf("result = %v", got)
	}
}

func TestParseUnionSingleSelect(t *testing.T) {
	d, _ := dataset.Figure1()
	u, err := ParseUnion(d.Schema(), "SELECT name FROM Teams")
	if err != nil || len(u.Disjuncts) != 1 {
		t.Errorf("single select union = %v, %v", u, err)
	}
}

func TestParseUnionQuotedKeyword(t *testing.T) {
	d, dd := dataset.Figure1()
	_ = d
	dd.InsertFact(db.NewFact("Teams", "UNION JACKS", "EU"))
	u, err := ParseUnion(dd.Schema(), "SELECT continent FROM Teams WHERE name = 'UNION JACKS'")
	if err != nil {
		t.Fatalf("ParseUnion: %v", err)
	}
	if len(u.Disjuncts) != 1 {
		t.Fatalf("quoted UNION split the query: %d disjuncts", len(u.Disjuncts))
	}
	got := eval.ResultUnion(u, dd)
	if len(got) != 1 || got[0][0] != "EU" {
		t.Errorf("result = %v", got)
	}
}

func TestParseUnionArityMismatch(t *testing.T) {
	d, _ := dataset.Figure1()
	_, err := ParseUnion(d.Schema(), "SELECT name FROM Teams UNION SELECT name, continent FROM Teams")
	if err == nil {
		t.Errorf("mixed arity union accepted")
	}
}

func TestParseUnionBadDisjunct(t *testing.T) {
	d, _ := dataset.Figure1()
	if _, err := ParseUnion(d.Schema(), "SELECT name FROM Teams UNION garbage"); err == nil {
		t.Errorf("bad disjunct accepted")
	}
}

// TestCleanUnionFromSQL drives CleanUnion on a SQL-defined union over the
// Figure 1 database: final winners from Europe or South America.
func TestCleanUnionFromSQL(t *testing.T) {
	d, dg := dataset.Figure1()
	u, err := ParseUnion(d.Schema(), `
		SELECT g.winner FROM Games g, Teams t
		WHERE g.stage = 'Final' AND t.name = g.winner AND t.continent = 'EU'
		UNION
		SELECT g.winner FROM Games g, Teams t
		WHERE g.stage = 'Final' AND t.name = g.winner AND t.continent = 'SA'`)
	if err != nil {
		t.Fatalf("ParseUnion: %v", err)
	}
	c := core.New(d, crowd.NewPerfect(dg), core.Config{RNG: rand.New(rand.NewSource(2))})
	if _, err := c.CleanUnion(context.Background(), u); err != nil {
		t.Fatalf("CleanUnion: %v", err)
	}
	got := eval.ResultUnion(u, d)
	want := eval.ResultUnion(u, dg)
	if len(got) != len(want) {
		t.Fatalf("U(D') = %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("U(D') = %v, want %v", got, want)
		}
	}
}
