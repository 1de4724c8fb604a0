// Package dataset provides the databases the paper evaluates on: the
// Figure 1 World Cup sample (with its exact wrong and missing tuples), a
// deterministic full-scale Soccer database generator (§7.2, ~5000 tuples), a
// DBGroup database generator (§7.1, ~2000 tuples), and the noise model
// (degree of data cleanliness, noise skewness, degree of result cleanliness).
package dataset

import (
	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// WorldCupSchema returns the four-relation schema of Figure 1.
func WorldCupSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "Games", Attrs: []string{"date", "winner", "runnerup", "stage", "result"}},
		schema.Relation{Name: "Teams", Attrs: []string{"name", "continent"}},
		schema.Relation{Name: "Players", Attrs: []string{"name", "team", "birthyear", "birthplace"}},
		schema.Relation{Name: "Goals", Attrs: []string{"player", "date"}},
	)
}

// Figure1 returns the dirty database D and ground truth DG of the paper's
// Figure 1. Dark-gray tuples of the figure (wrong) are present in D and
// absent from DG; light-gray tuples (missing) are absent from D and present
// in DG. The paper's 09.06.06/09.07.06 date inconsistency between Games and
// Goals is normalized to 09.07.06 so that Example 5.4's join goes through.
func Figure1() (d, dg *db.Database) {
	s := WorldCupSchema()
	d = db.New(s)
	dg = db.New(s)

	correctGames := [][]string{
		{"13.07.14", "GER", "ARG", "Final", "1:0"},
		{"11.07.10", "ESP", "NED", "Final", "1:0"},
		{"09.07.06", "ITA", "FRA", "Final", "5:3"},
		{"30.06.02", "BRA", "GER", "Final", "2:0"},
		{"08.07.90", "GER", "ARG", "Final", "1:0"},
		{"11.07.82", "ITA", "GER", "Final", "4:1"},
	}
	wrongGames := [][]string{ // dark gray in Figure 1
		{"12.07.98", "ESP", "NED", "Final", "4:2"},
		{"17.07.94", "ESP", "NED", "Final", "3:1"},
		{"25.06.78", "ESP", "NED", "Final", "1:0"},
	}
	trueGamesOnlyInDG := [][]string{ // the real finals the wrong tuples displaced
		{"12.07.98", "FRA", "BRA", "Final", "3:0"},
		{"17.07.94", "BRA", "ITA", "Final", "3:2"},
		{"25.06.78", "ARG", "NED", "Final", "3:1"},
	}
	for _, g := range correctGames {
		mustInsert(d, "Games", g)
		mustInsert(dg, "Games", g)
	}
	for _, g := range wrongGames {
		mustInsert(d, "Games", g)
	}
	for _, g := range trueGamesOnlyInDG {
		mustInsert(dg, "Games", g)
	}

	// Teams: BRA/EU and NED/SA are wrong in D; ITA/EU is missing from D.
	for _, t := range [][]string{{"GER", "EU"}, {"ESP", "EU"}} {
		mustInsert(d, "Teams", t)
		mustInsert(dg, "Teams", t)
	}
	mustInsert(d, "Teams", []string{"BRA", "EU"}) // wrong
	mustInsert(d, "Teams", []string{"NED", "SA"}) // wrong
	for _, t := range [][]string{{"BRA", "SA"}, {"NED", "EU"}, {"ITA", "EU"}, {"FRA", "EU"}, {"ARG", "SA"}} {
		mustInsert(dg, "Teams", t)
	}

	players := [][]string{
		{"Mario Götze", "GER", "1992", "GER"},
		{"Andrea Pirlo", "ITA", "1979", "ITA"},
		{"Francesco Totti", "ITA", "1976", "ITA"},
	}
	for _, p := range players {
		mustInsert(d, "Players", p)
		mustInsert(dg, "Players", p)
	}

	for _, g := range [][]string{{"Mario Götze", "13.07.14"}, {"Andrea Pirlo", "09.07.06"}} {
		mustInsert(d, "Goals", g)
		mustInsert(dg, "Goals", g)
	}
	mustInsert(d, "Goals", []string{"Francesco Totti", "09.07.06"}) // wrong

	return d, dg
}

// IntroQ1 is the paper's introductory query Q1: European teams that won the
// World Cup at least twice. Q1(D) = {(GER), (ESP)}; Q1(DG) = {(GER), (ITA)}.
func IntroQ1() *cq.Query {
	return cq.MustParse("(x) :- Games(d1, x, y, Final, u1), Games(d2, x, z, Final, u2), Teams(x, EU), d1 != d2.")
}

// IntroQ2 is the query of Example 5.4: European players who scored a goal in
// a World Cup final game.
func IntroQ2() *cq.Query {
	return cq.MustParse("(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, Final, u), Teams(y, EU).")
}

func mustInsert(d *db.Database, rel string, vals []string) {
	if _, err := d.InsertFact(db.NewFact(rel, vals...)); err != nil {
		panic(err)
	}
}
