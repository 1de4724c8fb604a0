package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/schema"
)

// SoccerSchema returns the schema of the full Soccer database of §7.2:
// the Figure 1 relations plus clubs and player-club affiliations ("games,
// goals, players, teams (national), clubs, etc.").
func SoccerSchema() *schema.Schema {
	return schema.New(
		schema.Relation{Name: "Games", Attrs: []string{"date", "winner", "loser", "stage", "result"}},
		schema.Relation{Name: "Teams", Attrs: []string{"name", "continent"}},
		schema.Relation{Name: "Players", Attrs: []string{"name", "team", "birthyear", "birthplace"}},
		schema.Relation{Name: "Goals", Attrs: []string{"player", "date"}},
		schema.Relation{Name: "Clubs", Attrs: []string{"name", "country"}},
		schema.Relation{Name: "PlaysFor", Attrs: []string{"player", "club"}},
	)
}

// Tournament stages.
const (
	StageGroup   = "Group"
	StageRound16 = "R16"
	StageQuarter = "QF"
	StageSemi    = "SF"
	StageFinal   = "Final"
)

// nationalTeams is the pool of national teams with continents used by the
// generator (continent codes as in Figure 1: EU, SA, NA, AS, AF, OC).
var nationalTeams = [][2]string{
	{"GER", "EU"}, {"ESP", "EU"}, {"ITA", "EU"}, {"FRA", "EU"}, {"NED", "EU"},
	{"ENG", "EU"}, {"POR", "EU"}, {"BEL", "EU"}, {"SWE", "EU"}, {"POL", "EU"},
	{"CRO", "EU"}, {"DEN", "EU"}, {"SUI", "EU"}, {"AUT", "EU"}, {"HUN", "EU"},
	{"CZE", "EU"}, {"RUS", "EU"}, {"SRB", "EU"},
	{"BRA", "SA"}, {"ARG", "SA"}, {"URU", "SA"}, {"CHI", "SA"}, {"COL", "SA"},
	{"PER", "SA"}, {"PAR", "SA"}, {"ECU", "SA"},
	{"MEX", "NA"}, {"USA", "NA"}, {"CRC", "NA"}, {"HON", "NA"},
	{"JPN", "AS"}, {"KOR", "AS"}, {"IRN", "AS"}, {"KSA", "AS"}, {"AUS", "AS"},
	{"NGA", "AF"}, {"CMR", "AF"}, {"GHA", "AF"}, {"SEN", "AF"}, {"EGY", "AF"},
	{"NZL", "OC"},
}

// clubPool is the pool of club teams with countries.
var clubPool = [][2]string{
	{"Bayern", "GER"}, {"Dortmund", "GER"}, {"RealMadrid", "ESP"}, {"Barcelona", "ESP"},
	{"Atletico", "ESP"}, {"Juventus", "ITA"}, {"Milan", "ITA"}, {"Inter", "ITA"},
	{"PSG", "FRA"}, {"Lyon", "FRA"}, {"Ajax", "NED"}, {"PSV", "NED"},
	{"ManUnited", "ENG"}, {"Liverpool", "ENG"}, {"Chelsea", "ENG"}, {"Arsenal", "ENG"},
	{"Porto", "POR"}, {"Benfica", "POR"}, {"Anderlecht", "BEL"}, {"Celtic", "EU"},
	{"Flamengo", "BRA"}, {"Santos", "BRA"}, {"BocaJuniors", "ARG"}, {"RiverPlate", "ARG"},
	{"Penarol", "URU"}, {"ColoColo", "CHI"}, {"America", "MEX"}, {"LAGalaxy", "USA"},
	{"Kashima", "JPN"}, {"AlAhly", "EGY"},
}

// Generator sizes of the Soccer ground truth.
const (
	// teamsPerCup is the number of participating teams per edition: 4 groups
	// of 4 plus a 16-team knockout bracket.
	teamsPerCup = 16
	// squadSize is the number of players generated per national team.
	squadSize = 11
)

// SoccerOpts tunes the generated Soccer ground truth.
type SoccerOpts struct {
	// Tournaments is the number of World Cup editions, the latest ones kept
	// (default and cap 20, 1930–2014 skipping the war years, as in the real
	// history). A non-positive value means the default.
	Tournaments int
}

// soccerSeed drives the deterministic generator.
const soccerSeed = 1

func (o *SoccerOpts) applyDefaults() {
	if o.Tournaments <= 0 {
		o.Tournaments = len(worldCupYears)
	}
}

// worldCupYears are the 20 editions 1930–2014 (no 1942/1946 cups).
var worldCupYears = []int{
	1930, 1934, 1938, 1950, 1954, 1958, 1962, 1966, 1970, 1974,
	1978, 1982, 1986, 1990, 1994, 1998, 2002, 2006, 2010, 2014,
}

// Soccer generates the ground-truth Soccer database of §7.2: a deterministic
// synthetic World Cup history of roughly 5000 tuples (the paper's scale).
// The same options always produce the same database.
func Soccer(opts SoccerOpts) *db.Database {
	opts.applyDefaults()
	rng := rand.New(rand.NewSource(soccerSeed))
	d := db.New(SoccerSchema())

	for _, t := range nationalTeams {
		mustInsert(d, "Teams", []string{t[0], t[1]})
	}
	for _, c := range clubPool {
		mustInsert(d, "Clubs", []string{c[0], c[1]})
	}

	// Squads: squadSize players per team, each affiliated with a club.
	playersByTeam := make(map[string][]string)
	for _, t := range nationalTeams {
		team := t[0]
		for i := 0; i < squadSize; i++ {
			name := fmt.Sprintf("%s Player%02d", team, i+1)
			birthyear := fmt.Sprintf("%d", 1955+rng.Intn(40))
			birthplace := team
			if rng.Intn(10) == 0 { // a few players born abroad
				birthplace = nationalTeams[rng.Intn(len(nationalTeams))][0]
			}
			mustInsert(d, "Players", []string{name, team, birthyear, birthplace})
			club := clubPool[rng.Intn(len(clubPool))][0]
			mustInsert(d, "PlaysFor", []string{name, club})
			playersByTeam[team] = append(playersByTeam[team], name)
		}
	}

	years := worldCupYears
	if opts.Tournaments < len(years) {
		years = years[len(years)-opts.Tournaments:]
	}
	for _, year := range years {
		generateTournament(d, rng, year, teamsPerCup, playersByTeam)
	}
	return d
}

// generateTournament simulates one World Cup edition: a group stage (round
// robin in groups of 4) followed by a 16-team knockout bracket.
func generateTournament(d *db.Database, rng *rand.Rand, year, nTeams int, squads map[string][]string) {
	// Participating teams: stronger (earlier-listed) teams are more likely.
	perm := rng.Perm(len(nationalTeams))
	teams := make([]string, 0, nTeams)
	for _, i := range perm {
		teams = append(teams, nationalTeams[i][0])
		if len(teams) == nTeams {
			break
		}
	}
	day := 1
	nextDate := func() string {
		date := fmt.Sprintf("%02d.%02d.%02d", (day-1)%28+1, 6+(day-1)/28, year%100)
		day++
		return date
	}

	// Group stage: groups of 4, round robin.
	for g := 0; g+4 <= len(teams); g += 4 {
		group := teams[g : g+4]
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				playGame(d, rng, nextDate(), group[i], group[j], StageGroup, squads)
			}
		}
	}

	// Knockout: R16 over all 16 teams (winners advance).
	stageOf := map[int]string{16: StageRound16, 8: StageQuarter, 4: StageSemi, 2: StageFinal}
	round := append([]string(nil), teams...)
	for len(round) >= 2 {
		stage, ok := stageOf[len(round)]
		if !ok {
			stage = StageRound16
		}
		var winners []string
		for i := 0; i+1 < len(round); i += 2 {
			w := playGame(d, rng, nextDate(), round[i], round[i+1], stage, squads)
			winners = append(winners, w)
		}
		round = winners
	}
}

// playGame records one decided game (winner listed first) plus its goals,
// returning the winner.
func playGame(d *db.Database, rng *rand.Rand, date, a, b, stage string, squads map[string][]string) string {
	winner, loser := a, b
	if rng.Intn(2) == 0 {
		winner, loser = b, a
	}
	wGoals := 1 + rng.Intn(4)
	lGoals := rng.Intn(wGoals)
	mustInsert(d, "Games", []string{date, winner, loser, stage, fmt.Sprintf("%d:%d", wGoals, lGoals)})
	score := func(team string, n int) {
		squad := squads[team]
		for i := 0; i < n && len(squad) > 0; i++ {
			player := squad[rng.Intn(len(squad))]
			// Goals has set semantics: a player scoring twice in a game is
			// one fact, like in the paper's schema (player, date).
			mustInsert(d, "Goals", []string{player, date})
		}
	}
	score(winner, wGoals)
	score(loser, lGoals)
	return winner
}

// Soccer queries Q1–Q5 of §7.2, ordered from smallest to largest result.

// SoccerQ1 finds European teams who lost at least two finals.
func SoccerQ1() *cq.Query {
	return cq.MustParse("q1(x) :- Games(d1, y, x, Final, u1), Games(d2, z, x, Final, u2), Teams(x, EU), d1 != d2.")
}

// SoccerQ2 finds pairs of teams from the same continent that played at least
// twice against each other (winning both times, in this CQ≠ phrasing).
func SoccerQ2() *cq.Query {
	return cq.MustParse("q2(x, y) :- Games(d1, x, y, s1, u1), Games(d2, x, y, s2, u2), Teams(x, c), Teams(y, c), d1 != d2.")
}

// SoccerQ3 finds non-Asian teams that reached the knockout phase (won a
// round-of-16 game) and won at least one other game.
func SoccerQ3() *cq.Query {
	return cq.MustParse("q3(x) :- Games(d1, x, y, s1, u1), Games(d2, x, z, R16, u2), Teams(x, c), c != AS, d1 != d2.")
}

// SoccerQ4 finds teams that lost two games with the same score.
func SoccerQ4() *cq.Query {
	return cq.MustParse("q4(x) :- Games(d1, y, x, s1, u), Games(d2, z, x, s2, u), d1 != d2.")
}

// SoccerQ5 finds teams that won at least two games, one of them against a
// South American team.
func SoccerQ5() *cq.Query {
	return cq.MustParse("q5(x) :- Games(d1, x, y, s1, u1), Games(d2, x, z, s2, u2), Teams(z, SA), d1 != d2.")
}

// SoccerQueries returns Q1–Q5 in the paper's order.
func SoccerQueries() []*cq.Query {
	return []*cq.Query{SoccerQ1(), SoccerQ2(), SoccerQ3(), SoccerQ4(), SoccerQ5()}
}
