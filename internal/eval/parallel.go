package eval

import (
	"sync"

	"repro/internal/cq"
	"repro/internal/db"
)

// parallelMinScan is the smallest driving scan worth splitting: below this
// the goroutine setup dominates whatever join work the chunks carry.
const parallelMinScan = 8

// searchParallel enumerates all valid total assignments extending seed by
// partitioning the scan of the first (most selective) atom across workers.
// Each worker owns a clone of the seed and enumerates its chunk exactly as
// the serial searchRec would, yielding into its own accumulator via
// newYield(w); chunks are assigned in scan order so the merge the caller
// performs (worker 0's results first, then worker 1's, …) is deterministic
// for a given scan. It reports ok = false when the enumeration does not
// parallelize profitably — the caller must then run the serial search.
func searchParallel(q *cq.Query, d db.Reader, seed Assignment, workers int, newYield func(w int) func(Assignment) bool) (ok bool) {
	if workers <= 1 {
		return false
	}
	a := seed.Clone()
	if !validateSeed(q, d, a) {
		return true // seed contradicts the query: zero assignments, nothing to run
	}
	// First-atom choice, exactly as searchRec: the fewest-matches atom under
	// the seed's bindings drives the top-level loop.
	bestPos, bestCount := -1, -1
	var bestBindings []db.Binding
	for pos := range q.Atoms {
		atom := q.Atoms[pos]
		rel := d.Rel(atom.Rel)
		if rel == nil {
			return true // unknown relation: no matches at all
		}
		bindings := bindingsFor(atom, a)
		n := rel.MatchCount(bindings)
		if bestPos == -1 || n < bestCount {
			bestPos, bestCount, bestBindings = pos, n, bindings
		}
		if n == 0 {
			return true // an empty atom prunes the whole enumeration
		}
	}
	if bestPos == -1 {
		return false // no atoms (boolean edge case): serial handles it
	}
	atom := q.Atoms[bestPos]
	scan := d.Rel(atom.Rel).Scan(bestBindings)
	if len(scan) < parallelMinScan || len(scan) < workers {
		return false
	}
	if workers > len(scan) {
		workers = len(scan)
	}
	rest := make([]int, 0, len(q.Atoms)-1)
	for i := range q.Atoms {
		if i != bestPos {
			rest = append(rest, i)
		}
	}

	r := rec()
	r.Inc(MetricParallelRuns)
	r.Observe(MetricParallelWorkers, float64(workers))

	var wg sync.WaitGroup
	chunk := (len(scan) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(scan) {
			hi = len(scan)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, tuples []db.Tuple) {
			defer wg.Done()
			yield := newYield(w)
			wa := a.Clone()
			restW := append([]int(nil), rest...)
			for _, tuple := range tuples {
				bound, okBind := bind(wa, atom, tuple)
				if !okBind {
					continue
				}
				okIneq := true
				for _, e := range q.Ineqs {
					if !wa.IneqHolds(e) {
						okIneq = false
						break
					}
				}
				if okIneq && !searchRec(q, d, wa, restW, yield) {
					rollback(wa, bound)
					return
				}
				rollback(wa, bound)
			}
		}(w, scan[lo:hi])
	}
	wg.Wait()
	return true
}

// collect gathers all valid total assignments extending seed under cfg:
// serially via search, or via searchParallel with per-worker slices merged
// in worker order. Callers sort the result, so the two paths produce
// byte-identical output.
func collect(q *cq.Query, d db.Reader, seed Assignment, cfg config) []Assignment {
	if cfg.workers > 1 {
		parts := make([][]Assignment, cfg.workers)
		if searchParallel(q, d, seed, cfg.workers, func(w int) func(Assignment) bool {
			return func(a Assignment) bool {
				parts[w] = append(parts[w], a.Clone())
				return true
			}
		}) {
			var out []Assignment
			for _, p := range parts {
				out = append(out, p...)
			}
			return out
		}
	}
	var out []Assignment
	search(q, d, seed, func(a Assignment) bool {
		out = append(out, a.Clone())
		return true
	})
	return out
}

// collectKeyed streams the valid total assignments extending seed through
// pick and keeps one value per distinct key pick returns (pick reports
// ok = false to skip an assignment, which it sees borrowed). It enumerates
// serially via search, or via searchParallel with per-worker maps merged
// afterwards, so both paths produce the same map.
func collectKeyed[T any](q *cq.Query, d db.Reader, seed Assignment, cfg config, pick func(Assignment) (string, T, bool)) map[string]T {
	into := func(m map[string]T) func(Assignment) bool {
		return func(a Assignment) bool {
			if k, v, ok := pick(a); ok {
				m[k] = v
			}
			return true
		}
	}
	if cfg.workers > 1 {
		parts := make([]map[string]T, cfg.workers)
		if searchParallel(q, d, seed, cfg.workers, func(w int) func(Assignment) bool {
			parts[w] = make(map[string]T)
			return into(parts[w])
		}) {
			out := make(map[string]T)
			for _, p := range parts {
				for k, v := range p {
					out[k] = v
				}
			}
			return out
		}
	}
	out := make(map[string]T)
	search(q, d, seed, into(out))
	return out
}
