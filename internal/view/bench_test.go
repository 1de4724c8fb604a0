package view

import (
	"testing"

	"repro/internal/dataset"
)

// BenchmarkEngineEnsure guards the streaming build of a maintained view:
// materializing Soccer Q3 (the Fig 3d query) over the full database counts
// each assignment into its answer's support without cloning or sorting it.
// A cleaning job pays this once before its first question.
func BenchmarkEngineEnsure(b *testing.B) {
	d := dataset.Soccer(dataset.SoccerOpts{})
	q := dataset.SoccerQueries()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewEngine(d).Ensure(q); err != nil {
			b.Fatal(err)
		}
	}
}
