package cq_test

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
)

// pinnedQueries are the queries whose renderings testdata/text.golden pins:
// the Soccer, DBGroup and Figure 1 workloads, and constants that must be
// quoted (empty, a lower-case first letter, a quote, a backslash, a trailing
// backslash, ":-" and a trailing '.') or must not be.
func pinnedQueries() []struct {
	name string
	q    *cq.Query
} {
	var out []struct {
		name string
		q    *cq.Query
	}
	add := func(name string, q *cq.Query) {
		out = append(out, struct {
			name string
			q    *cq.Query
		}{name, q})
	}
	for i, q := range dataset.SoccerQueries() {
		add(fmt.Sprintf("soccer-Q%d", i+1), q)
	}
	for i, q := range dataset.DBGroupQ1().Disjuncts {
		add(fmt.Sprintf("dbgroup-Q1-%d", i+1), q)
	}
	add("dbgroup-Q2", dataset.DBGroupQ2())
	add("dbgroup-Q3", dataset.DBGroupQ3())
	add("dbgroup-Q4", dataset.DBGroupQ4())
	add("figure1-Q1", dataset.IntroQ1())
	add("figure1-Q2", dataset.IntroQ2())
	for i, c := range []string{"", "lower", "it's", `a\b`, `end\`, "a:-b", "dot.", "Plain", "9.5", "A-b_c:d", "two words"} {
		add(fmt.Sprintf("const-%d", i), &cq.Query{
			Name:  "q",
			Head:  []cq.Term{cq.Var("x"), cq.Const(c)},
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.Var("x"), cq.Const(c)}}},
			Ineqs: []cq.Ineq{{Left: cq.Var("x"), Right: cq.Const(c)}},
			Negs:  []cq.Atom{{Rel: "S", Args: []cq.Term{cq.Const(c)}}},
		})
	}
	add("unnamed", cq.MustParse("(x) :- R(x, y), not S(y), x != y."))
	return out
}

// TestQueryTextPinned pins Query.String to renderings generated before
// AppendText existed, one "name<TAB>text" line per query: the job journal
// stores a job's query text and QuestionKey embeds it, so a journal written
// by an older binary recovers only while the bytes stay the same. The file
// is never regenerated. AppendText must write the same bytes after a prefix
// it leaves untouched.
func TestQueryTextPinned(t *testing.T) {
	const path = "testdata/text.golden"
	queries := pinnedQueries()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, text, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed line %q", sc.Text())
		}
		want[name] = text
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(queries) {
		t.Fatalf("%s pins %d queries, the test renders %d", path, len(want), len(queries))
	}
	for _, p := range queries {
		w, ok := want[p.name]
		if !ok {
			t.Errorf("%s: not pinned", p.name)
			continue
		}
		if got := p.q.String(); got != w {
			t.Errorf("%s: String = %q, pinned %q", p.name, got, w)
		}
		prefix := []byte("r\x00prefix\x1f")
		got := p.q.AppendText(prefix[:len(prefix):len(prefix)])
		if string(got[:len(prefix)]) != string(prefix) {
			t.Errorf("%s: AppendText changed the prefix to %q", p.name, got[:len(prefix)])
		}
		if string(got[len(prefix):]) != w {
			t.Errorf("%s: AppendText = %q, pinned %q", p.name, got[len(prefix):], w)
		}
		if q2, err := cq.Parse(w); err != nil || !q2.Equal(p.q) {
			t.Errorf("%s: pinned text does not parse back to the query (err %v)", p.name, err)
		}
	}
}
