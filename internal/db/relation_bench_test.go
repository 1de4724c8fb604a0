package db_test

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/db"
)

// Soccer's Games(date, winner, loser, stage, result) columns the relation
// benchmarks bind.
const (
	gamesWinner = 1
	gamesStage  = 3
)

// soccerGames returns the full Soccer instance's Games relation (780 tuples)
// and every tuple in lexicographic order.
func soccerGames() (*db.Relation, []db.Tuple) {
	r := dataset.Soccer(dataset.SoccerOpts{}).Rel("Games").(*db.Relation)
	return r, r.Tuples()
}

// gamesBindings returns, for every Games tuple, the bindings an atom like
// Q3's Games(d2, x, z, R16, u2) imposes once x is bound: the winner alone,
// or the winner and the stage.
func gamesBindings(ts []db.Tuple, withStage bool) [][]db.Binding {
	out := make([][]db.Binding, len(ts))
	for i, t := range ts {
		out[i] = []db.Binding{{Col: gamesWinner, Value: t[gamesWinner]}}
		if withStage {
			out[i] = append(out[i], db.Binding{Col: gamesStage, Value: t[gamesStage]})
		}
	}
	return out
}

// BenchmarkRelationScan times the join search's index scan over Soccer's
// Games, cycling through the bindings of every tuple: one binding (a
// winner) and two (a winner and a stage).
func BenchmarkRelationScan(b *testing.B) {
	r, ts := soccerGames()
	for _, c := range []struct {
		name      string
		withStage bool
	}{{"one", false}, {"two", true}} {
		bs := gamesBindings(ts, c.withStage)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(r.Scan(bs[i%len(bs)]))
			}
			if n == 0 {
				b.Fatal("every scan was empty")
			}
		})
	}
}

// BenchmarkRelationMatchCount times the selectivity estimate the join search
// takes for every remaining atom at every node, with a winner and a stage
// bound (one binding reads a posting's length).
func BenchmarkRelationMatchCount(b *testing.B) {
	r, ts := soccerGames()
	bs := gamesBindings(ts, true)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += r.MatchCount(bs[i%len(bs)])
	}
	if n == 0 {
		b.Fatal("every count was zero")
	}
}

// BenchmarkRelationDelete times deleting a Games tuple and inserting it back,
// cycling through the tuples of the longest posting of the stage column,
// Games' lowest-cardinality column: a deletion searches each column's
// posting for the tuple, and the stage posting is the longest it searches.
func BenchmarkRelationDelete(b *testing.B) {
	r, ts := soccerGames()
	count := make(map[string]int)
	for _, t := range ts {
		count[t[gamesStage]]++
	}
	var stage string
	for s, n := range count {
		if n > count[stage] {
			stage = s
		}
	}
	victims := slices.Clone(r.Scan([]db.Binding{{Col: gamesStage, Value: stage}}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := victims[i%len(victims)]
		if !r.Delete(t) || !r.Insert(t) {
			b.Fatalf("could not delete and re-insert %v", t)
		}
	}
}
