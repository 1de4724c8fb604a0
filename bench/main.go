// Command bench runs whole QOCO cleaning jobs and reports what they cost: the
// end-to-end metrics a user of a job sees, or, with -trace, per-layer
// metrics timed around the calls the benchmark makes into each layer. See
// README.md for the workloads, the metrics and how to compare two runs.
//
//	go run . --workload fig3d-delete --seed 1 --seconds 30 --trace 0
//	go run . --repeats 5 --out .bench_build/a.json
//	go run . compare .bench_build/a.json .bench_build/b.json
//
// A single-workload run prints one JSON object as the last line of its
// standard output: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dataset"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// hardStop bounds one run, whatever its job floor asks for, so a run always
// ends well inside the three minutes a run may take.
const hardStop = 150 * time.Second

// runOptions configures one run of one workload.
type runOptions struct {
	workload workload
	seed     int64
	seconds  time.Duration
	trace    bool
	soccer   dataset.SoccerOpts
	dir      string // scratch directory for server jobs' stores and journals
	maxJobs  int    // stop after this many jobs; 0 runs until seconds have passed
}

// runOutput is the result line of a run.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	jobs      int                    // untraced jobs run
}

// runWorkload runs the workload's jobs in a closed loop until the run has
// lasted o.seconds and, untraced, completed the workload's job floor. A
// traced run runs every job twice, untraced and then traced, so it can
// report the tracing overhead; both runs must ask the same questions.
func runWorkload(ctx context.Context, o runOptions) (runOutput, *tracer, []error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	start := time.Now()
	var untraced, traced []jobResult
	for j := 0; ; j++ {
		elapsed := time.Since(start)
		floorMet := o.trace || j >= o.workload.minJobs
		if j > 0 && (elapsed >= hardStop || elapsed >= o.seconds && floorMet) || o.maxJobs > 0 && j >= o.maxJobs {
			break
		}
		u := runJob(ctx, o.workload, o.soccer, o.seed, j, o.dir, nil)
		untraced = append(untraced, u)
		if o.trace {
			t := runJob(ctx, o.workload, o.soccer, o.seed, j, o.dir, tr)
			if t.err == nil && u.err == nil && t.questions() != u.questions() {
				t.err = fmt.Errorf("job %d asked %d questions traced, %d untraced", j, t.questions(), u.questions())
			}
			traced = append(traced, t)
		}
	}

	var failures []error
	out := runOutput{jobs: len(untraced)}
	for _, j := range append(append([]jobResult(nil), untraced...), traced...) {
		out.Attempted++
		if j.err != nil {
			failures = append(failures, j.err)
		}
		for _, r := range j.reads {
			out.Attempted++
			if r.err != nil {
				failures = append(failures, fmt.Errorf("read: %w", r.err))
			}
		}
	}
	if !o.trace && o.maxJobs == 0 && len(untraced) < o.workload.minJobs {
		failures = append(failures, fmt.Errorf("ran %d of %d jobs before the %s stop", len(untraced), o.workload.minJobs, hardStop))
		out.Attempted++
	}
	out.Failed = len(failures)
	out.Correct = out.Failed == 0
	if o.trace {
		out.Metrics = withUnits(perLayer, perLayerValues(traced, untraced, tr))
	} else {
		out.Metrics = withUnits(endToEnd, endToEndValues(untraced, o.workload.minJobs))
	}
	return out, tr, failures
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "run seed; job j of the run cleans inputs generated from it")
	secs := fs.Float64("seconds", 30, "how long a run measures")
	trace := fs.String("trace", "0",
		"0 reports end-to-end metrics; 1 runs traced jobs and reports per-layer metrics; "+
			"any other value traces and also writes the spans and metrics to that file")
	repeats := fs.Int("repeats", 0,
		"run every named workload this many times, each run a fresh child process, alternating the workload order")
	outFile := fs.String("out", "", "result file to write; runs are appended when it exists")
	dir := fs.String("dir", ".bench_build", "directory for the stores and journals of server jobs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o := runOptions{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), trace: *trace != "0"}
	traceFile := ""
	if o.trace && *trace != "1" {
		traceFile = *trace
	}
	if *workloadName == "all" || *repeats > 0 {
		return orchestrate(*workloadName, max(*repeats, 1), o, *trace, traceFile, *outFile, *dir)
	}
	w, found := workloadNamed(*workloadName)
	if !found {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	o.workload = w
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*dir, "run-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	o.dir = runDir

	out, tr, failures := runWorkload(context.Background(), o)
	for i, err := range failures {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "bench: ... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}
	m := newMeta(o.seconds)
	rec := runRecord{Workload: w.name, Seed: o.seed, Trace: o.trace, Jobs: out.jobs, runOutput: out}
	if traceFile != "" {
		if err := writeTrace(traceFile, m, rec, tr.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *outFile != "" {
		if err := appendResults(*outFile, m, []runRecord{rec}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	metaLine, _ := json.Marshal(m)
	fmt.Fprintf(os.Stderr, "bench: %s\n", metaLine)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// orchestrate runs every named workload repeats times, each run a fresh
// child process of this binary, and reverses the workload order on every
// other repeat so no workload always runs first. It prints each workload's
// medians and quartiles and appends the runs to outFile when set.
func orchestrate(name string, repeats int, o runOptions, trace, traceFile, outFile, dir string) int {
	names := []string{name}
	if name == "all" {
		names = nil
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	} else if _, found := workloadNamed(name); !found {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var records []runRecord
	status := 0
	for r := 0; r < repeats; r++ {
		order := append([]string(nil), names...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			childTrace := trace
			if traceFile != "" {
				childTrace = strings.TrimSuffix(traceFile, ".json") + "." + w + ".json"
			}
			rec, err := runChild(exe, w, o, childTrace, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				status = 1
				continue
			}
			if !rec.Correct {
				status = 1
			}
			records = append(records, rec)
		}
	}
	m := newMeta(o.seconds)
	summary := summarize(records)
	if outFile != "" {
		if err := appendResults(outFile, m, records); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if traceFile != "" {
		if err := writeJSON(traceFile, resultFile{Meta: m, Runs: records, Summary: summary}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	printSummary(os.Stdout, summary)
	return status
}

// runChild runs one workload in a child process, which writes its run to a
// result file of its own.
func runChild(exe, workload string, o runOptions, trace, dir string) (runRecord, error) {
	tmp, err := os.MkdirTemp(dir, "child-*")
	if err != nil {
		return runRecord{}, err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "result.json")
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds.Seconds()), "--trace", trace, "--dir", dir, "--out", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	res, err := loadResults(path)
	if err != nil || len(res.Runs) != 1 {
		return runRecord{}, errors.Join(runErr, fmt.Errorf("no result: %v", err))
	}
	return res.Runs[0], nil
}

func writeJSON(path string, v interface{}) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
