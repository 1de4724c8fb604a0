package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// with their regression bounds; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of a cleaning job sees, over every job of
// an untraced run. Times are CPU seconds rescaled by the speed probe (see
// clock.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},           // median per-job set-up: dataset, noise, store and server boot
	{"jobs_per_cpu_s", "1/s", "higher"}, // jobs ÷ their summed CPU time
	{"job_cpu_s_p50", "s", "lower"},     // per-job CPU time: the Clean call, or POST until terminal
	{"job_cpu_s_p90", "s", "lower"},
	{"questions_per_job", "questions", "lower"}, // crowd.Stats.Total, mean over the first minJobs jobs
	{"alloc_mb_per_job", "MB", "lower"},         // bytes allocated during jobs ÷ jobs
}

// perLayer are the traced run's per-layer metrics: per job unless they are
// a ratio, whose base is listed next to it.
var perLayer = []metricDef{
	{"crowd.verify_fact", "count", "lower"},
	{"crowd.verify_answer", "count", "lower"},
	{"crowd.complete", "count", "lower"},
	{"crowd.complete_result", "count", "lower"},
	{"crowd.vars_filled", "count", "lower"},
	{"crowd.busy_s", "s", "lower"},
	{"core.verify_s", "s", "lower"},
	{"core.delete_s", "s", "lower"},
	{"core.insert_s", "s", "lower"},
	{"core.unphased_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.edits", "count", "lower"},
	{"eval.witnesses.calls", "count", "lower"},
	{"eval.witnesses.s", "s", "lower"},
	{"eval.witnesses.sets_mean", "count", "lower"},
	{"eval.result.calls", "count", "lower"},
	{"eval.result.s", "s", "lower"},
	{"eval.cache.lookups", "count", "lower"},
	{"eval.cache.hit_ratio", "fraction", "higher"},
	{"eval.maintained.lookups", "count", "lower"},
	{"eval.maintained.hit_ratio", "fraction", "higher"},
	{"hitting.bnb_nodes", "count", "lower"},
	{"split.calls", "count", "lower"},
	{"split.s", "s", "lower"},
	{"split.ok_ratio", "fraction", "higher"},
	{"db.apply.calls", "count", "lower"},
	{"db.apply.s", "s", "lower"},
	{"db.edit_bytes", "bytes", "lower"},
	{"db.fs.write_bytes", "bytes", "lower"},
	{"db.fs.fsyncs", "count", "lower"},
	{"db.fs.fsync_s", "s", "lower"},
	{"db.write_amp", "ratio", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_s", "s", "lower"},
	{"wal.write_bytes", "bytes", "lower"},
	{"server.http.clean_s", "s", "lower"},
	{"server.http.questions_s", "s", "lower"},
	{"server.http.answer_s", "s", "lower"},
	{"server.http.jobs_s", "s", "lower"},
	{"server.http.query_s", "s", "lower"},
	{"server.requests_per_job", "count", "lower"},
	{"server.polls", "count", "lower"},
	{"server.poll_hit_ratio", "fraction", "higher"},
	{"server.reads", "count", "higher"},
	{"server.read_s_p50", "s", "lower"},
	{"server.read_s_p90", "s", "lower"},
	{"loadgen.late_s_max", "s", "lower"},
	{"wall.jobs_per_s", "1/s", "higher"},
	{"wall.job_s_p50", "s", "lower"},
	{"wall.job_s_p90", "s", "lower"},
	{"cpu.job_s_p50", "s", "lower"},
	{"probe_s", "s", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each definition's unit to the computed values. A value
// that could not be computed (no successful job) reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	sort.Float64s(out)
	return out
}

func ok(jobs []jobResult) []jobResult {
	var out []jobResult
	for _, j := range jobs {
		if j.err == nil {
			out = append(out, j)
		}
	}
	return out
}

// endToEndValues reduces a run's untraced jobs to the end-to-end metrics.
// questions_per_job averages over the first minJobs jobs only, so runs with
// the same seed report the same count however many jobs they fit.
func endToEndValues(jobs []jobResult, minJobs int) map[string]float64 {
	var setups, cpus, probes []time.Duration
	var cpuSum time.Duration
	var alloc uint64
	for _, j := range ok(jobs) {
		setups = append(setups, j.setup)
		cpus = append(cpus, j.cpu)
		probes = append(probes, j.probe)
		cpuSum += j.cpu
		alloc += j.alloc
	}
	questions := 0
	counted := jobs[:min(minJobs, len(jobs))]
	for _, j := range counted {
		questions += j.questions()
	}
	n := float64(len(cpus))
	// Rescale CPU times to the reference machine (see clock.go).
	scale := probeRef.Seconds() / percentile(seconds(probes), 0.5)
	c := seconds(cpus)
	return map[string]float64{
		"setup_s":           scale * percentile(seconds(setups), 0.5),
		"jobs_per_cpu_s":    n / (scale * cpuSum.Seconds()),
		"job_cpu_s_p50":     scale * percentile(c, 0.5),
		"job_cpu_s_p90":     scale * percentile(c, 0.9),
		"questions_per_job": float64(questions) / float64(len(counted)),
		"alloc_mb_per_job":  float64(alloc) / 1e6 / n,
	}
}

// wallValues are the untraced jobs' raw wall and CPU times, which the
// per-layer metrics carry for reference next to the rescaled ones.
func wallValues(jobs []jobResult) map[string]float64 {
	var walls, cpus, probes []time.Duration
	var wallSum time.Duration
	for _, j := range ok(jobs) {
		walls = append(walls, j.wall)
		cpus = append(cpus, j.cpu)
		probes = append(probes, j.probe)
		wallSum += j.wall
	}
	w := seconds(walls)
	return map[string]float64{
		"wall.jobs_per_s": float64(len(w)) / wallSum.Seconds(),
		"wall.job_s_p50":  percentile(w, 0.5),
		"wall.job_s_p90":  percentile(w, 0.9),
		"cpu.job_s_p50":   percentile(seconds(cpus), 0.5),
		"probe_s":         percentile(seconds(probes), 0.5),
	}
}

// perLayerValues reduces a traced run to the per-layer metrics. traced[i]
// and untraced[i] are the two runs of the same job; the untraced ones give
// the read latencies and the tracing overhead.
func perLayerValues(traced, untraced []jobResult, tr *tracer) map[string]float64 {
	sum := make(map[string]float64) // per-job metrics, summed over jobs
	var n float64
	var tracedCPU, untracedCPU time.Duration
	var o obsTally
	var dbFS, walFS fsTally
	var polls, pollHits float64
	for i, j := range traced {
		if j.err != nil || untraced[i].err != nil {
			continue
		}
		n++
		tracedCPU += j.cpu
		untracedCPU += untraced[i].cpu
		r := j.report
		sum["crowd.verify_fact"] += float64(r.Crowd.VerifyFactQs)
		sum["crowd.verify_answer"] += float64(r.Crowd.VerifyAnswerQs)
		sum["crowd.complete"] += float64(r.Crowd.CompleteQs)
		sum["crowd.complete_result"] += float64(r.Crowd.CompleteResultQs)
		sum["crowd.vars_filled"] += float64(r.Crowd.VariablesFilled)
		sum["core.verify_s"] += r.Timings.Verify.Seconds()
		sum["core.delete_s"] += r.Timings.Delete.Seconds()
		sum["core.insert_s"] += r.Timings.Insert.Seconds()
		sum["core.unphased_s"] += (j.wall - r.Timings.Total).Seconds()
		sum["core.iterations"] += float64(r.Iterations)
		sum["core.edits"] += float64(len(r.Edits))
		sum["server.requests_per_job"] += float64(j.requests)
		o = o.plus(j.obs, 1)
		dbFS, walFS = dbFS.plus(j.dbFS, 1), walFS.plus(j.walFS, 1)
		polls += float64(j.polls)
		pollHits += float64(j.hits)
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	http := make(map[string][]float64)
	for _, s := range spans {
		d := time.Duration(s.End - s.Start).Seconds()
		switch {
		case s.Name == spanJob:
			sum["core.self_s"] += self[s.ID].Seconds()
		case s.Name == spanCrowd:
			sum["crowd.busy_s"] += d
		case s.Name == spanSplit:
			sum["split.calls"]++
			sum["split.s"] += d
		case s.Name == spanDBApply:
			sum["db.apply.calls"]++
			sum["db.apply.s"] += d
		case strings.HasPrefix(s.Name, spanHTTP):
			route := strings.TrimPrefix(s.Name, spanHTTP)
			http[route] = append(http[route], d)
		}
	}

	tr.mu.Lock()
	o = o.plus(tr.crowdEval, -1)
	splitOK, editBytes := float64(tr.splitOK), float64(tr.editBytes)
	tr.mu.Unlock()
	sum["eval.witnesses.calls"] = float64(o.witnessCalls)
	sum["eval.witnesses.s"] = o.witnessSecs
	sum["eval.result.calls"] = float64(o.resultCalls)
	sum["eval.result.s"] = o.resultSecs
	sum["eval.cache.lookups"] = float64(o.cacheHits + o.cacheMisses)
	sum["eval.maintained.lookups"] = float64(o.maintainedHits + o.maintainedMs)
	sum["hitting.bnb_nodes"] = float64(o.bnbNodes)
	sum["db.edit_bytes"] = editBytes
	sum["db.fs.write_bytes"] = float64(dbFS.writeBytes)
	sum["db.fs.fsyncs"] = float64(dbFS.fsyncs)
	sum["db.fs.fsync_s"] = time.Duration(dbFS.fsyncNs).Seconds()
	sum["wal.fsyncs"] = float64(walFS.fsyncs)
	sum["wal.fsync_s"] = time.Duration(walFS.fsyncNs).Seconds()
	sum["wal.write_bytes"] = float64(walFS.writeBytes)
	sum["server.polls"] = polls

	v := make(map[string]float64, len(perLayer))
	for k, x := range sum {
		v[k] = x / n
	}
	ratio := func(name string, num, den float64) {
		if den > 0 {
			v[name] = num / den
		}
	}
	ratio("eval.witnesses.sets_mean", o.witnessSets, float64(o.witnessCalls))
	ratio("eval.cache.hit_ratio", float64(o.cacheHits), float64(o.cacheHits+o.cacheMisses))
	ratio("eval.maintained.hit_ratio", float64(o.maintainedHits), float64(o.maintainedHits+o.maintainedMs))
	ratio("split.ok_ratio", splitOK, sum["split.calls"])
	ratio("db.write_amp", float64(dbFS.writeBytes), editBytes)
	ratio("server.poll_hit_ratio", pollHits, polls)
	ratio("trace.overhead_frac", (tracedCPU - untracedCPU).Seconds(), tracedCPU.Seconds())
	for route, ds := range http {
		sort.Float64s(ds)
		v["server.http."+route+"_s"] = percentile(ds, 0.5)
	}

	// Raw times, reads and generator lag come from the untraced jobs.
	for k, x := range wallValues(untraced) {
		v[k] = x
	}
	var lat []float64
	late := 0.0
	for _, j := range ok(untraced) {
		for _, r := range j.reads {
			if r.err == nil {
				lat = append(lat, r.latency.Seconds())
			}
			late = math.Max(late, r.late.Seconds())
		}
	}
	sort.Float64s(lat)
	v["server.reads"] = float64(len(lat))
	if len(lat) > 0 {
		v["server.read_s_p50"] = percentile(lat, 0.5)
		v["server.read_s_p90"] = percentile(lat, 0.9)
	}
	v["loadgen.late_s_max"] = late
	return v
}
