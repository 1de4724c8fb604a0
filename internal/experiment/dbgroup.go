package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/noise"
)

// ShowcaseRow reports the cleaning outcome for one DBGroup report query.
type ShowcaseRow struct {
	Query     string
	Wrong     int // wrong answers discovered
	Missing   int // missing answers discovered
	Deleted   int // wrong tuples removed from the database
	Inserted  int // missing tuples added to the database
	Questions int // total crowd answers (paper cost model)
	Converged bool
}

// DBGroupShowcase reproduces the §7.1 experience report: the DBGroup database
// is seeded with the paper's error profile — a wrong and a missing keynote
// (Q1), four wrong members and a missing member (Q2), five missing
// conferences (Q3) — and QOCO cleans the four report queries in sequence.
// The paper found 5 wrong + 7 missing answers and applied 6 deletions + 8
// insertions; the same order of magnitude must emerge here.
func DBGroupShowcase(seed int64) []ShowcaseRow {
	rng := rand.New(rand.NewSource(seed))
	dg := dataset.DBGroup()
	d := dg.Clone()

	q1 := dataset.DBGroupQ1()
	q2 := dataset.DBGroupQ2()
	q3 := dataset.DBGroupQ3()
	q4 := dataset.DBGroupQ4()

	// Seed the §7.1 error profile.
	noise.InjectWrong(d, dg, q1.Disjuncts[0], 1, rng)   // 1 wrong keynote
	noise.InjectMissing(d, dg, q1.Disjuncts[0], 1, rng) // 1 missing keynote
	noise.InjectWrong(d, dg, q2, 4, rng)                // 4 wrong members
	noise.InjectMissing(d, dg, q2, 1, rng)              // 1 missing member
	noise.InjectMissing(d, dg, q3, 5, rng)              // 5 missing conferences

	cl := core.New(d, crowd.NewPerfect(dg), core.Config{RNG: rng})
	var rows []ShowcaseRow

	prevQ := 0
	record := func(name string, wrong, missing, dels, ins int, err error) {
		s := cl.Stats()
		rows = append(rows, ShowcaseRow{
			Query: name, Wrong: wrong, Missing: missing,
			Deleted: dels, Inserted: ins,
			Questions: s.Total() - prevQ, Converged: err == nil,
		})
		prevQ = s.Total()
	}

	r1, err1 := cl.CleanUnion(context.Background(), q1)
	record("Q1 keynotes/tutorials", r1.WrongAnswers, r1.MissingAnswers, r1.Deletions, r1.Insertions, err1)
	r2, err2 := cl.Clean(context.Background(), q2)
	record("Q2 ERC members", r2.WrongAnswers, r2.MissingAnswers, r2.Deletions, r2.Insertions, err2)
	r3, err3 := cl.Clean(context.Background(), q3)
	record("Q3 sponsored travel", r3.WrongAnswers, r3.MissingAnswers, r3.Deletions, r3.Insertions, err3)
	r4, err4 := cl.Clean(context.Background(), q4)
	record("Q4 crowd pubs", r4.WrongAnswers, r4.MissingAnswers, r4.Deletions, r4.Insertions, err4)

	return rows
}

// RenderShowcase formats the DBGroup showcase as a text table with totals.
func RenderShowcase(rows []ShowcaseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DBGroup report cleaning (§7.1)\n")
	fmt.Fprintf(&b, "%-24s %6s %8s %8s %9s %10s %s\n",
		"query", "#wrong", "#missing", "#deleted", "#inserted", "#questions", "ok")
	var tw, tm, td, ti, tq int
	allOK := true
	for _, r := range rows {
		ok := "yes"
		if !r.Converged {
			ok, allOK = "NO", false
		}
		fmt.Fprintf(&b, "%-24s %6d %8d %8d %9d %10d %s\n",
			r.Query, r.Wrong, r.Missing, r.Deleted, r.Inserted, r.Questions, ok)
		tw += r.Wrong
		tm += r.Missing
		td += r.Deleted
		ti += r.Inserted
		tq += r.Questions
	}
	okAll := "yes"
	if !allOK {
		okAll = "NO"
	}
	fmt.Fprintf(&b, "%-24s %6d %8d %8d %9d %10d %s\n", "TOTAL", tw, tm, td, ti, tq, okAll)
	fmt.Fprintf(&b, "paper:                        5        7        6         8   (one-hour crowd session)\n")
	return b.String()
}
