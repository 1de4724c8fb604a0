package sqlfe

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/schema"
)

// introQ1SQL is the paper's Q1 written as SQL.
const introQ1SQL = `
SELECT g1.winner FROM Games g1, Games g2, Teams t
WHERE g1.winner = g2.winner AND t.name = g1.winner
  AND g1.stage = 'Final' AND g2.stage = 'Final'
  AND t.continent = 'EU' AND g1.date <> g2.date`

// mustParse, mustParseUnion and mustParseAggregate parse a test's fixed
// SQL, panicking on error.
func mustParse(s *schema.Schema, sql string) *cq.Query {
	q, err := Parse(s, sql)
	if err != nil {
		panic(err)
	}
	return q
}

func mustParseUnion(s *schema.Schema, sql string) *cq.Union {
	u, err := ParseUnion(s, sql)
	if err != nil {
		panic(err)
	}
	return u
}

func mustParseAggregate(s *schema.Schema, sql string) *agg.Query {
	q, err := ParseAggregate(s, sql)
	if err != nil {
		panic(err)
	}
	return q
}

func TestParseIntroQ1Equivalence(t *testing.T) {
	d, dg := dataset.Figure1()
	q, err := Parse(d.Schema(), introQ1SQL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := eval.Result(dataset.IntroQ1(), d)
	got := eval.Result(q, d)
	if len(got) != len(want) {
		t.Fatalf("SQL Q1(D) = %v, datalog Q1(D) = %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("SQL Q1(D) = %v, datalog Q1(D) = %v", got, want)
		}
	}
	// Also over the ground truth.
	if got, want := eval.Result(q, dg), eval.Result(dataset.IntroQ1(), dg); len(got) != len(want) {
		t.Errorf("SQL Q1(DG) = %v, want %v", got, want)
	}
}

func TestParseUnqualifiedColumns(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT player FROM Goals WHERE date = '13.07.14'")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := eval.Result(q, d)
	if len(got) != 1 || got[0][0] != "Mario Götze" {
		t.Errorf("result = %v, want Götze", got)
	}
}

func TestParseStar(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT * FROM Teams")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Head) != 2 {
		t.Fatalf("head = %v, want both Teams columns", q.Head)
	}
	if got := eval.Result(q, d); len(got) != 4 {
		t.Errorf("SELECT * FROM Teams = %d rows, want 4", len(got))
	}
}

func TestParseJoinOnEquality(t *testing.T) {
	d, _ := dataset.Figure1()
	// Players joined with Goals: who scored?
	q, err := Parse(d.Schema(), `
		SELECT p.name, g.date FROM Players p, Goals g WHERE p.name = g.player`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := eval.Result(q, d)
	if len(got) != 3 {
		t.Errorf("join result = %v, want 3 scorer rows", got)
	}
}

func TestParseDistinctKeyword(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT DISTINCT continent FROM Teams")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := eval.Result(q, d); len(got) != 2 {
		t.Errorf("distinct continents = %v, want [EU SA]", got)
	}
}

func TestParseAsAlias(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT x.name FROM Teams AS x WHERE x.continent = 'EU'")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := eval.Result(q, d); len(got) != 3 {
		t.Errorf("EU teams in D = %v, want 3 (GER, ESP, BRA-wrong)", got)
	}
}

func TestParseNumericLiteral(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT name FROM Players WHERE birthyear = 1979")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := eval.Result(q, d)
	if len(got) != 1 || got[0][0] != "Andrea Pirlo" {
		t.Errorf("result = %v, want Pirlo", got)
	}
}

func TestParseNeqLiteral(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT name FROM Teams WHERE continent <> 'EU'")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := eval.Result(q, d)
	if len(got) != 1 || got[0][0] != "NED" {
		t.Errorf("result = %v, want [NED]", got)
	}
}

func TestParseSQLQuoteEscapes(t *testing.T) {
	d, _ := dataset.Figure1()
	dd := d.Clone()
	dd.InsertFact(db.NewFact("Teams", "O'Land", "EU"))
	q, err := Parse(d.Schema(), "SELECT continent FROM Teams WHERE name = 'O''Land'")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := eval.Result(q, dd)
	if len(got) != 1 || got[0][0] != "EU" {
		t.Errorf("result = %v", got)
	}
}

func TestUnsatisfiableQueries(t *testing.T) {
	d, _ := dataset.Figure1()
	cases := []string{
		"SELECT name FROM Teams WHERE continent = 'EU' AND continent = 'SA'",
		"SELECT name FROM Teams WHERE name <> name",
		"SELECT g1.winner FROM Games g1 WHERE g1.stage = 'Final' AND g1.stage <> 'Final'",
	}
	for _, sql := range cases {
		_, err := Parse(d.Schema(), sql)
		if !errors.Is(err, ErrAlwaysEmpty) {
			t.Errorf("Parse(%q) err = %v, want ErrAlwaysEmpty", sql, err)
		}
	}
}

func TestTriviallyTrueNeqDropped(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "SELECT name FROM Teams WHERE continent = 'EU' AND continent <> 'SA'")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Ineqs) != 0 {
		t.Errorf("trivially true <> should be dropped: %v", q.Ineqs)
	}
}

func TestParseErrors(t *testing.T) {
	d, _ := dataset.Figure1()
	cases := []struct{ name, sql, wantSub string }{
		{"no select", "FROM Teams", "expected SELECT"},
		{"no from", "SELECT name", "expected FROM"},
		{"unknown table", "SELECT x FROM Nope", "unknown table"},
		{"unknown column", "SELECT nope FROM Teams", "unknown column"},
		{"unknown alias", "SELECT z.name FROM Teams t", "unknown table alias"},
		{"bad alias column", "SELECT t.nope FROM Teams t", "no column"},
		{"ambiguous", "SELECT date FROM Games, Goals", "ambiguous"},
		{"dup alias", "SELECT t.name FROM Teams t, Games t", "duplicate table alias"},
		{"bad operator", "SELECT name FROM Teams WHERE name < 'x'", "unsupported operator"},
		{"trailing", "SELECT name FROM Teams extra garbage ,", "unexpected trailing"},
		{"unterminated", "SELECT name FROM Teams WHERE name = 'oops", "unterminated string"},
		{"empty pred", "SELECT name FROM Teams WHERE", "expected column"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(d.Schema(), c.sql)
			if err == nil {
				t.Fatalf("Parse(%q): want error", c.sql)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := Parse(d.Schema(), "select name from Teams where continent = 'EU'")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := eval.Result(q, d); len(got) != 3 {
		t.Errorf("lowercase keywords result = %v", got)
	}
}

// TestSoccerQ4SQL rewrites §7.2's Q4 (teams that lost two games with the same
// score) in SQL and checks equivalence with the Datalog phrasing over the
// generated Soccer database.
func TestSoccerQ4SQL(t *testing.T) {
	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 6})
	q, err := Parse(d.Schema(), `
		SELECT g1.loser FROM Games g1, Games g2
		WHERE g1.loser = g2.loser AND g1.result = g2.result AND g1.date <> g2.date`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := eval.Result(dataset.SoccerQ4(), d)
	got := eval.Result(q, d)
	if len(got) != len(want) {
		t.Fatalf("SQL Q4 = %d rows, datalog Q4 = %d rows", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestTypedSyntaxErrors pins the lexer/parser hardening: malformed inputs
// (minimized from FuzzParseSQL findings) must produce a *SyntaxError matching
// ErrSyntax — never a panic, never a silently mis-tokenized parse.
func TestTypedSyntaxErrors(t *testing.T) {
	s := dataset.WorldCupSchema()
	cases := []struct{ name, sql, wantSub string }{
		{"unterminated literal", "select a from b where c = 'unterminated", "unterminated string"},
		{"invalid utf8 ident", "SELECT na\xffme FROM Teams", "invalid UTF-8"},
		{"invalid utf8 literal", "SELECT name FROM Teams WHERE name = '\xff'", "invalid UTF-8"},
		{"trailing union", "SELECT name FROM Teams UNION", "expected SELECT"},
		{"union as alias", "SELECT name FROM Teams UNION garbage", "expected SELECT"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseUnion(s, c.sql)
			if err == nil {
				t.Fatalf("ParseUnion(%q): want error", c.sql)
			}
			if !errors.Is(err, ErrSyntax) {
				t.Errorf("err = %v, want ErrSyntax", err)
			}
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("err = %T, want *SyntaxError", err)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
	// Plain Parse must reject a trailing UNION too (it used to swallow it as
	// a table alias while ParseUnion errored — the two entry points silently
	// disagreed on the same text).
	if _, err := Parse(s, "SELECT name FROM Teams UNION"); !errors.Is(err, ErrSyntax) {
		t.Errorf("Parse with trailing UNION: err = %v, want ErrSyntax", err)
	}
}

// TestOversizedStatementRejected pins the resource guard: statements beyond
// maxStatementBytes fail fast with a typed error on every entry point.
func TestOversizedStatementRejected(t *testing.T) {
	s := dataset.WorldCupSchema()
	sql := "SELECT name FROM Teams WHERE name = '" + strings.Repeat("x", maxStatementBytes) + "'"
	for name, parse := range map[string]func() error{
		"Parse":          func() error { _, err := Parse(s, sql); return err },
		"ParseUnion":     func() error { _, err := ParseUnion(s, sql); return err },
		"ParseAggregate": func() error { _, err := ParseAggregate(s, sql); return err },
	} {
		if err := parse(); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s on oversized statement: err = %v, want ErrSyntax", name, err)
		}
	}
}

// TestNestedParensAggregateTyped pins the fuzz finding that deeply nested
// parentheses inside an aggregate must fail with a typed error.
func TestNestedParensAggregateTyped(t *testing.T) {
	s := dataset.WorldCupSchema()
	_, err := ParseAggregate(s, "SELECT winner, COUNT((((date FROM Games GROUP BY winner")
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v, want ErrSyntax", err)
	}
}

// TestAggregateDistinct pins the first metamorphic-sweep catch: ParseAggregate
// rejected SELECT DISTINCT while plain Parse accepted it. DISTINCT is implied
// by set semantics, so both forms must translate identically.
func TestAggregateDistinct(t *testing.T) {
	s := dataset.WorldCupSchema()
	plain := mustParseAggregate(s, "SELECT winner, COUNT(date) FROM Games GROUP BY winner")
	distinct, err := ParseAggregate(s, "SELECT DISTINCT winner, COUNT(date) FROM Games GROUP BY winner")
	if err != nil {
		t.Fatalf("ParseAggregate with DISTINCT: %v", err)
	}
	if !distinct.Body.Equal(plain.Body) || distinct.Kind != plain.Kind || distinct.Of != plain.Of {
		t.Errorf("DISTINCT changed the translation: %s vs %s", distinct, plain)
	}
}

// TestUnionDropsEmptyDisjuncts pins the union-alignment fix found by the
// metamorphic union-permutation oracle: a disjunct with a contradictory WHERE
// contributes nothing and must be dropped, not fail the whole union — only an
// all-empty union is ErrAlwaysEmpty. Before the fix, `Q UNION empty` was
// rejected while `Q` alone parsed, making disjunct order observable.
func TestUnionDropsEmptyDisjuncts(t *testing.T) {
	d, _ := dataset.Figure1()
	s := d.Schema()
	u, err := ParseUnion(s, "SELECT name FROM Teams UNION SELECT name FROM Teams WHERE name <> name")
	if err != nil {
		t.Fatalf("ParseUnion with one empty disjunct: %v", err)
	}
	if len(u.Disjuncts) != 1 {
		t.Fatalf("got %d disjuncts, want 1 (empty disjunct dropped)", len(u.Disjuncts))
	}
	want := eval.ResultUnion(mustParseUnion(s, "SELECT name FROM Teams"), d)
	got := eval.ResultUnion(u, d)
	if len(got) != len(want) {
		t.Errorf("results differ: %v vs %v", got, want)
	}
	_, err = ParseUnion(s, "SELECT name FROM Teams WHERE name <> name UNION SELECT name FROM Teams WHERE name <> name")
	if !errors.Is(err, ErrAlwaysEmpty) {
		t.Errorf("all-empty union: err = %v, want ErrAlwaysEmpty", err)
	}
}
