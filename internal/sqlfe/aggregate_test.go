package sqlfe

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/db"
)

func TestParseAggregateCountWins(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := ParseAggregate(d.Schema(), `
		SELECT g.winner, COUNT(g.date) FROM Games g
		WHERE g.stage = 'Final' GROUP BY g.winner`)
	if err != nil {
		t.Fatalf("ParseAggregate: %v", err)
	}
	if q.Kind != agg.Count {
		t.Errorf("kind = %v", q.Kind)
	}
	groups, err := agg.Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, g := range groups {
		byKey[g.Key[0]] = g.Value
	}
	if byKey["ESP"] != 4 || byKey["GER"] != 2 {
		t.Errorf("groups = %v, want ESP:4 GER:2", byKey)
	}
}

func TestParseAggregateUnqualified(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := ParseAggregate(d.Schema(), "SELECT team, COUNT(name) FROM Players GROUP BY team")
	if err != nil {
		t.Fatalf("ParseAggregate: %v", err)
	}
	v, ok, err := agg.GroupValue(q, d, db.Tuple{"ITA"})
	if err != nil || !ok || v != 2 {
		t.Errorf("COUNT(ITA players) = %v, %v, %v; want 2", v, ok, err)
	}
}

func TestParseAggregateMinMaxSum(t *testing.T) {
	d, _ := dataset.Figure1()
	q, err := ParseAggregate(d.Schema(), "SELECT team, MIN(birthyear) FROM Players GROUP BY team")
	if err != nil {
		t.Fatalf("ParseAggregate: %v", err)
	}
	v, ok, err := agg.GroupValue(q, d, db.Tuple{"ITA"})
	if err != nil || !ok || v != 1976 {
		t.Errorf("MIN birthyear(ITA) = %v; want 1976", v)
	}
	q2 := mustParseAggregate(d.Schema(), "SELECT team, MAX(birthyear) FROM Players GROUP BY team")
	v2, _, _ := agg.GroupValue(q2, d, db.Tuple{"ITA"})
	if v2 != 1979 {
		t.Errorf("MAX birthyear(ITA) = %v; want 1979", v2)
	}
	q3 := mustParseAggregate(d.Schema(), "SELECT team, SUM(birthyear) FROM Players GROUP BY team")
	v3, _, _ := agg.GroupValue(q3, d, db.Tuple{"ITA"})
	if v3 != 1976+1979 {
		t.Errorf("SUM birthyear(ITA) = %v", v3)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	d, _ := dataset.Figure1()
	cases := []struct{ name, sql string }{
		{"no aggregate", "SELECT team FROM Players GROUP BY team"},
		{"two aggregates", "SELECT team, COUNT(name), SUM(birthyear) FROM Players GROUP BY team"},
		{"missing group by", "SELECT team, COUNT(name) FROM Players"},
		{"group mismatch", "SELECT team, COUNT(name) FROM Players GROUP BY birthplace"},
		{"group arity", "SELECT team, COUNT(name) FROM Players GROUP BY team, birthplace"},
		{"unknown column", "SELECT team, COUNT(nope) FROM Players GROUP BY team"},
		{"agg over constant", "SELECT name, COUNT(continent) FROM Teams WHERE continent = 'EU' GROUP BY name"},
		{"missing paren", "SELECT team, COUNT(name FROM Players GROUP BY team"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseAggregate(d.Schema(), c.sql); err == nil {
				t.Errorf("ParseAggregate(%q): want error", c.sql)
			}
		})
	}
}

func TestParseAggregateCountAsColumnName(t *testing.T) {
	// COUNT not followed by '(' is an ordinary identifier (e.g. a column).
	d, _ := dataset.Figure1()
	if _, err := ParseAggregate(d.Schema(), "SELECT count, COUNT(name) FROM Players GROUP BY count"); err == nil {
		t.Errorf("unknown column 'count' accepted")
	}
}
