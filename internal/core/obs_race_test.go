package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// TestSharedRecorderUnderParallelCleaners hammers one obs.Recorder from many
// cleaners at once — the server's deployment shape, where every job and the
// question queue record into the recorder behind /api/v1/metrics. Run with
// -race; the assertions only sanity-check the aggregated totals.
func TestSharedRecorderUnderParallelCleaners(t *testing.T) {
	rec := obs.New()
	const runs = 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			d, dg := dataset.Figure1()
			c := New(d, crowd.NewPerfect(dg), Config{
				Obs: rec, RNG: rand.New(rand.NewSource(seed)),
			})
			if _, err := c.Clean(context.Background(), dataset.IntroQ1()); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(int64(i))
	}
	// Concurrent readers: snapshots must be consistent while recording runs.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = rec.Snapshot().Flat()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := rec.Snapshot()
	if got := s.Counters[MetricIterations]; got < runs {
		t.Errorf("%s = %d, want >= %d (one per run at least)", MetricIterations, got, runs)
	}
	if got := s.Counters[crowd.MetricVerifyAnswer]; got < runs {
		t.Errorf("%s = %d, want >= %d", crowd.MetricVerifyAnswer, got, runs)
	}
	if got := s.Counters[MetricEditsDelete]; got < runs {
		t.Errorf("%s = %d, want >= %d (each run deletes at least once)", MetricEditsDelete, got, runs)
	}
	h, ok := s.Histograms[MetricCleanSeconds]
	if !ok || h.Count != runs {
		t.Errorf("%s count = %+v, want %d total observations", MetricCleanSeconds, h, runs)
	}
	if h, ok := s.Histograms[MetricWitnessSets]; !ok || h.Count < runs {
		t.Errorf("%s = %+v, want >= %d observations", MetricWitnessSets, h, runs)
	}
}
