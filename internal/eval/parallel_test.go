package eval

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
)

// assignmentsEqual compares two assignment lists by canonical keys.
func assignmentsEqual(a, b []Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestParallelMatchesSerialSoccer: on the Fig3 workload queries, partitioned
// evaluation at any worker count returns byte-identical output to serial
// evaluation — Result, Eval, and Witnesses of every answer alike.
func TestParallelMatchesSerialSoccer(t *testing.T) {
	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 4})
	for qi, q := range dataset.SoccerQueries() {
		serialRes := Result(q, d, NoCache())
		serialAsgs := Eval(q, d, NoCache())
		for _, workers := range []int{2, 4, 8} {
			parRes := Result(q, d, NoCache(), Parallel(workers))
			if !tuplesEqual(parRes, serialRes) {
				t.Fatalf("Q%d workers=%d: parallel Result %v != serial %v", qi+1, workers, parRes, serialRes)
			}
			parAsgs := Eval(q, d, NoCache(), Parallel(workers))
			if !assignmentsEqual(parAsgs, serialAsgs) {
				t.Fatalf("Q%d workers=%d: parallel Eval diverges (%d vs %d assignments)",
					qi+1, workers, len(parAsgs), len(serialAsgs))
			}
		}
		for _, tp := range serialRes {
			if !witnessesEqual(
				Witnesses(q, d, tp, NoCache(), Parallel(4)),
				Witnesses(q, d, tp, NoCache()),
			) {
				t.Fatalf("Q%d: parallel witnesses for %v diverge from serial", qi+1, tp)
			}
		}
	}
}

// TestParallelMatchesSerialRandomized: parity on randomized queries and
// databases large enough to clear the parallel fallback threshold.
func TestParallelMatchesSerialRandomized(t *testing.T) {
	s := schema.New(
		schema.Relation{Name: "R", Attrs: []string{"a", "b"}},
		schema.Relation{Name: "S", Attrs: []string{"b", "c"}},
	)
	consts := []string{"C0", "C1", "C2", "C3", "C4", "C5"}
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 150; trial++ {
		q := randQuery(rng)
		if err := q.Validate(s); err != nil {
			continue
		}
		// Bigger instances than randDB builds, so top-level scans regularly
		// exceed parallelMinScan and the partitioned path actually runs.
		d := db.New(s)
		n := 30 + rng.Intn(60)
		for i := 0; i < n; i++ {
			rel := "R"
			if rng.Intn(2) == 0 {
				rel = "S"
			}
			d.InsertFact(db.NewFact(rel, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]))
		}
		serial := Eval(q, d, NoCache())
		par := Eval(q, d, NoCache(), Parallel(3))
		if !assignmentsEqual(par, serial) {
			t.Fatalf("trial %d (%s): parallel Eval diverges (%d vs %d assignments)",
				trial, q, len(par), len(serial))
		}
	}
}

// TestParallelFallbackTinyScan: below the minimum scan size the engine falls
// back to the serial path and stays correct.
func TestParallelFallbackTinyScan(t *testing.T) {
	d, _ := dataset.Figure1()
	q := dataset.IntroQ1()
	want := Result(q, d, NoCache())
	got := Result(q, d, NoCache(), Parallel(8))
	if !tuplesEqual(got, want) {
		t.Fatalf("tiny-scan parallel Result %v != serial %v", got, want)
	}
}

// TestParallelRecordsMetrics: partitioned runs surface in the eval.parallel.*
// series, and the worker-count distribution reflects the requested width.
func TestParallelRecordsMetrics(t *testing.T) {
	r := obs.New()
	Instrument(r)
	defer Instrument(nil)

	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 4})
	q := dataset.SoccerQueries()[1] // Q2 scans Teams at the top level: well past parallelMinScan
	Result(q, d, NoCache(), Parallel(4))

	snap := r.Snapshot()
	if snap.Counters[MetricParallelRuns] == 0 {
		t.Fatal("no parallel run recorded; the partitioned path never ran")
	}
	if h := snap.Histograms[MetricParallelWorkers]; h.Count == 0 || h.Max > 4 {
		t.Errorf("worker distribution %+v, want >=1 observation with max <= 4", h)
	}
}

// TestParallelOptionResolution: Parallel(n<=0) selects GOMAXPROCS and worker
// counts below 2 take the serial path (no goroutines, no metrics).
func TestParallelOptionResolution(t *testing.T) {
	r := obs.New()
	Instrument(r)
	defer Instrument(nil)

	d := dataset.Soccer(dataset.SoccerOpts{Tournaments: 2})
	q := dataset.SoccerQueries()[0]
	want := Result(q, d, NoCache())
	if got := Result(q, d, NoCache(), Parallel(-1)); !tuplesEqual(got, want) {
		t.Fatalf("Parallel(-1) Result %v != serial %v", got, want)
	}
	if got := Result(q, d, NoCache(), Parallel(1)); !tuplesEqual(got, want) {
		t.Fatalf("Parallel(1) Result %v != serial %v", got, want)
	}
}

// TestParallelUnionAndExtensions: the option threads through the UCQ and
// seeded-enumeration entry points unchanged.
func TestParallelUnionAndExtensions(t *testing.T) {
	d, _ := dataset.Figure1()
	u := cq.MustParseUnion("(x) :- Teams(x, EU) ; (x) :- Teams(x, SA)")
	want := ResultUnion(u, d, NoCache())
	if got := ResultUnion(u, d, NoCache(), Parallel(4)); !tuplesEqual(got, want) {
		t.Fatalf("parallel ResultUnion %v != serial %v", got, want)
	}

	q := dataset.IntroQ1()
	seed := Assignment{"x": "GER"}
	wantExt := Extensions(q, d, seed, NoCache())
	if gotExt := Extensions(q, d, seed, NoCache(), Parallel(4)); !assignmentsEqual(gotExt, wantExt) {
		t.Fatalf("parallel Extensions diverge (%d vs %d)", len(gotExt), len(wantExt))
	}
}
