package eval_test

import (
	"fmt"
	"testing"

	"repro/internal/check"
	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
)

// TestBestMatchesSortedEval: Best equals Eval cut to k, element for
// element. It runs over the differential harness's generated instances, on
// D and DG, for every disjunct of the instance's union and every one-atom
// subquery of it (the shape Algorithm 2 selects from). The generated
// instances stay under 64 rows, so the Soccer queries' one-atom subqueries,
// with hundreds, exercise the cut at 64.
func TestBestMatchesSortedEval(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		ins := check.Generate(seed)
		for _, d := range []db.Reader{ins.D, ins.DG} {
			for _, q := range withOneAtomSubqueries(ins.Union.Disjuncts) {
				if err := bestMatchesSortedEval(q, d); err != nil {
					t.Fatalf("seed %d, %s: %v", seed, q, err)
				}
			}
		}
	}
	soccer := dataset.Soccer(dataset.SoccerOpts{Tournaments: 2})
	for _, q := range withOneAtomSubqueries(dataset.SoccerQueries()) {
		if err := bestMatchesSortedEval(q, soccer); err != nil {
			t.Fatalf("Soccer, %s: %v", q, err)
		}
	}
}

// withOneAtomSubqueries lists the queries, each followed by its one-atom
// subqueries.
func withOneAtomSubqueries(qs []*cq.Query) []*cq.Query {
	var out []*cq.Query
	for _, q := range qs {
		out = append(out, q)
		for i := range q.Atoms {
			out = append(out, cq.SubqueryOf(q, []int{i}))
		}
	}
	return out
}

func bestMatchesSortedEval(q *cq.Query, d db.Reader) error {
	all := eval.Eval(q, d)
	for _, k := range []int{0, 1, 2, len(all) / 2, 64, len(all) + 1} {
		want := all
		if k > 0 && k < len(all) {
			want = all[:k]
		}
		if got := eval.Best(q, d, nil, k); !sameAssignments(got, want) {
			return fmt.Errorf("Best(k=%d) = %v, want %v", k, got, want)
		}
	}
	return nil
}

func sameAssignments(got, want []eval.Assignment) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			return false
		}
	}
	return true
}
