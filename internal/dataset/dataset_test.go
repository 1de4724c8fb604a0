package dataset

import (
	"testing"

	"repro/internal/db"
	"repro/internal/eval"
)

func TestFigure1Shape(t *testing.T) {
	d, dg := Figure1()
	// Figure 1's D: 9 games, 4 teams, 3 players, 3 goals.
	counts := map[string]int{"Games": 9, "Teams": 4, "Players": 3, "Goals": 3}
	for rel, want := range counts {
		if got := d.Rel(rel).Len(); got != want {
			t.Errorf("|D.%s| = %d, want %d", rel, got, want)
		}
	}
	// Wrong tuples of the figure are in D but not DG.
	wrong := []db.Fact{
		db.NewFact("Games", "12.07.98", "ESP", "NED", "Final", "4:2"),
		db.NewFact("Games", "17.07.94", "ESP", "NED", "Final", "3:1"),
		db.NewFact("Games", "25.06.78", "ESP", "NED", "Final", "1:0"),
		db.NewFact("Teams", "BRA", "EU"),
		db.NewFact("Teams", "NED", "SA"),
		db.NewFact("Goals", "Francesco Totti", "09.07.06"),
	}
	for _, f := range wrong {
		if !d.Has(f) {
			t.Errorf("wrong tuple %v missing from D", f)
		}
		if dg.Has(f) {
			t.Errorf("wrong tuple %v present in DG", f)
		}
	}
	// The missing tuple of the figure is in DG but not D.
	missing := db.NewFact("Teams", "ITA", "EU")
	if d.Has(missing) {
		t.Errorf("missing tuple %v present in D", missing)
	}
	if !dg.Has(missing) {
		t.Errorf("missing tuple %v absent from DG", missing)
	}
}

func TestFigure1Deterministic(t *testing.T) {
	d1, dg1 := Figure1()
	d2, dg2 := Figure1()
	if !db.Equal(d1, d2) || !db.Equal(dg1, dg2) {
		t.Errorf("Figure1 is not deterministic")
	}
}

func TestSoccerScaleAndDeterminism(t *testing.T) {
	d1 := Soccer(SoccerOpts{})
	if n := d1.Len(); n < 3000 || n > 7000 {
		t.Errorf("|Soccer| = %d, want the paper's ~5000 scale", n)
	}
	d2 := Soccer(SoccerOpts{})
	if !db.Equal(d1, d2) {
		t.Errorf("Soccer generator is not deterministic")
	}
}

// TestSoccerNegativeTournamentsMeansDefault: a negative Tournaments count is
// taken as the default, like zero, instead of slicing the edition list out of
// range.
func TestSoccerNegativeTournamentsMeansDefault(t *testing.T) {
	want := Soccer(SoccerOpts{})
	for _, n := range []int{-1, -21} {
		if got := Soccer(SoccerOpts{Tournaments: n}); !db.Equal(got, want) {
			t.Errorf("Tournaments %d: %d facts, want the default database's %d", n, got.Len(), want.Len())
		}
	}
}

func TestSoccerReferentialShape(t *testing.T) {
	d := Soccer(SoccerOpts{Tournaments: 4})
	// Every game's winner and loser are known teams.
	teams := d.Rel("Teams")
	d.Rel("Games").Each(func(tp db.Tuple) bool {
		for _, col := range []int{1, 2} {
			found := teams.Scan([]db.Binding{{Col: 0, Value: tp[col]}})
			if len(found) == 0 {
				t.Errorf("game %v references unknown team %s", tp, tp[col])
				return false
			}
		}
		if tp[1] == tp[2] {
			t.Errorf("game %v has a team playing itself", tp)
		}
		return true
	})
	// Every goal references an existing player and game date.
	players := d.Rel("Players")
	games := d.Rel("Games")
	d.Rel("Goals").Each(func(tp db.Tuple) bool {
		if len(players.Scan([]db.Binding{{Col: 0, Value: tp[0]}})) == 0 {
			t.Errorf("goal %v references unknown player", tp)
			return false
		}
		if len(games.Scan([]db.Binding{{Col: 0, Value: tp[1]}})) == 0 {
			t.Errorf("goal %v references unknown game date", tp)
			return false
		}
		return true
	})
	// Finals exist: one per tournament.
	finals := games.Scan([]db.Binding{{Col: 3, Value: StageFinal}})
	if len(finals) != 4 {
		t.Errorf("finals = %d, want 4 (one per tournament)", len(finals))
	}
}

func TestSoccerQueriesHaveAnswers(t *testing.T) {
	d := Soccer(SoccerOpts{})
	sizes := make([]int, 0, 5)
	for i, q := range SoccerQueries() {
		if err := q.Validate(d.Schema()); err != nil {
			t.Fatalf("Q%d invalid: %v", i+1, err)
		}
		res := eval.Result(q, d)
		if len(res) == 0 {
			t.Errorf("Q%d has no answers over the ground truth", i+1)
		}
		sizes = append(sizes, len(res))
	}
	// The paper orders Q1..Q5 from smallest to largest result; check the
	// broad trend (Q1 smallest, Q5 among the largest).
	if sizes[0] > sizes[3] || sizes[0] > sizes[4] {
		t.Errorf("result sizes %v: Q1 should be smallest", sizes)
	}
}

func TestDBGroupScaleAndDeterminism(t *testing.T) {
	d1 := DBGroup()
	if n := d1.Len(); n < 1500 || n > 3000 {
		t.Errorf("|DBGroup| = %d, want the paper's ~2000 scale", n)
	}
	d2 := DBGroup()
	if !db.Equal(d1, d2) {
		t.Errorf("DBGroup generator is not deterministic")
	}
}

func TestDBGroupQueriesHaveAnswers(t *testing.T) {
	d := DBGroup()
	for _, q := range DBGroupQ1().Disjuncts {
		if err := q.Validate(d.Schema()); err != nil {
			t.Fatalf("Q1 invalid: %v", err)
		}
	}
	if got := eval.ResultUnion(DBGroupQ1(), d); len(got) == 0 {
		t.Errorf("Q1 (keynotes/tutorials) has no answers")
	}
	queries := []struct {
		name string
		run  func() int
	}{
		{"Q2", func() int { return len(eval.Result(DBGroupQ2(), d)) }},
		{"Q3", func() int { return len(eval.Result(DBGroupQ3(), d)) }},
		{"Q4", func() int { return len(eval.Result(DBGroupQ4(), d)) }},
	}
	for _, q := range queries {
		if q.run() == 0 {
			t.Errorf("%s has no answers over the ground truth", q.name)
		}
	}
}

func TestDBGroupQueryValidation(t *testing.T) {
	s := DBGroupSchema()
	if err := DBGroupQ2().Validate(s); err != nil {
		t.Errorf("Q2: %v", err)
	}
	if err := DBGroupQ3().Validate(s); err != nil {
		t.Errorf("Q3: %v", err)
	}
	if err := DBGroupQ4().Validate(s); err != nil {
		t.Errorf("Q4: %v", err)
	}
}
