// Command qocobench regenerates the paper's evaluation tables (§7): the
// perfect-oracle deletion/insertion/mixed experiments of Figures 3a-3f, the
// imperfect-expert experiment of Figure 4, and the DBGroup report showcase of
// §7.1. Output is one text table per figure, with the same bar series the
// paper plots (#results / #questions / #avoided, or the question-type mix).
//
// Usage:
//
//	qocobench                 # every figure at the paper's defaults
//	qocobench -fig 3a         # one figure
//	qocobench -seeds 5        # average over more random seeds
//	qocobench -tournaments 8  # smaller Soccer database for quick runs
//	qocobench -fig overload   # admission-control rate sweep (-json for JSON)
//	qocobench -fig eval       # evaluator cold/warm benchmark
//	qocobench -fig eval -json # …writing BENCH_eval.json (the bench trajectory)
//	qocobench -fig ivm        # per-edit incremental maintenance vs cold re-eval
//	qocobench -fig ivm -json  # …writing BENCH_ivm.json (the IVM trajectory)
//	qocobench -fig cluster    # 3-replica failover soak with chaos kills
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/metamorph"
	"repro/internal/obs"
	"repro/internal/storecfg"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 3c, 3d, 3e, 3f, 4, dbgroup, sweep, errsweep, heuristics, overload, eval, ivm, cluster, metamorph, or all")
	seeds := flag.Int("seeds", 3, "number of random seeds to average over")
	tournaments := flag.Int("tournaments", 0, "number of World Cup editions in the Soccer database (0 = full 20)")
	wrong := flag.Int("wrong", 5, "wrong answers injected per query (Figures 3a, 3c, 4)")
	missing := flag.Int("missing", 5, "missing answers injected per query (Figures 3b, 3c, 4)")
	errRate := flag.Float64("errrate", 0.1, "per-question error rate of imperfect experts (Figure 4)")
	overloadDur := flag.Duration("overload-duration", 2*time.Second, "load duration per rate point of the overload sweep")
	jsonOut := flag.Bool("json", false, "overload/cluster: emit JSON to stdout; eval, ivm: write BENCH_eval.json, BENCH_ivm.json")
	ivmEdits := flag.Int("ivm-edits", 40, "length of the IVM benchmark's seeded edit script (-fig ivm)")
	metamorphSeeds := flag.Int("metamorph-seeds", 2000, "seeded workloads per oracle in the metamorphic sweep (-fig metamorph)")
	clusterSubs := flag.Int("cluster-submissions", 2000, "cleaning jobs submitted by the cluster soak (-fig cluster)")
	clusterKills := flag.Int("cluster-kills", 12, "kill/restart chaos rounds in the cluster soak (-fig cluster)")
	scfg := storecfg.Register(flag.CommandLine)
	flag.Parse()
	if *tournaments < 0 {
		fmt.Fprintf(os.Stderr, "qocobench: -tournaments %d: must not be negative\n", *tournaments)
		os.Exit(2)
	}

	cfg := experiment.Config{
		WrongAnswers:   *wrong,
		MissingAnswers: *missing,
		ExpertError:    *errRate,
		Soccer:         dataset.SoccerOpts{Tournaments: *tournaments},
	}
	for s := int64(1); s <= int64(*seeds); s++ {
		cfg.Seeds = append(cfg.Seeds, s)
	}

	run := func(name string) bool { return *fig == "all" || *fig == name }
	any := false
	if run("3a") {
		fmt.Print(experiment.RenderRows("Figure 3a — Deletion, multiple queries (perfect oracle)", experiment.Fig3a(cfg)), "\n")
		any = true
	}
	if run("3b") {
		fmt.Print(experiment.RenderRows("Figure 3b — Insertion, multiple queries (perfect oracle)", experiment.Fig3b(cfg)), "\n")
		any = true
	}
	if run("3c") {
		fmt.Print(experiment.RenderRows("Figure 3c — Mixed, multiple queries (perfect oracle)", experiment.Fig3c(cfg)), "\n")
		any = true
	}
	if run("3d") {
		fmt.Print(experiment.RenderRows("Figure 3d — Deletion vs number of wrong answers (Q3)", experiment.Fig3d(cfg)), "\n")
		any = true
	}
	if run("3e") {
		fmt.Print(experiment.RenderRows("Figure 3e — Insertion vs number of missing answers (Q3)", experiment.Fig3e(cfg)), "\n")
		any = true
	}
	if run("3f") {
		fmt.Print(experiment.RenderMix("Figure 3f — Mixed, question types (Q3)", experiment.Fig3f(cfg)), "\n")
		any = true
	}
	if run("4") {
		fmt.Print(experiment.RenderMix("Figure 4 — Real (imperfect) expert crowd, majority of 3", experiment.Fig4(cfg)), "\n")
		any = true
	}
	if run("dbgroup") {
		fmt.Print(experiment.RenderShowcase(experiment.DBGroupShowcase(cfg.Seeds[0])), "\n")
		any = true
	}
	if run("heuristics") {
		fmt.Print(experiment.RenderRows("Deletion-heuristic ablation (§4 alternatives, Q3)", experiment.HeuristicsAblation(cfg)), "\n")
		any = true
	}
	if run("errsweep") {
		fmt.Print(experiment.RenderErrorSweep(experiment.ErrorRateSweep(cfg, nil)), "\n")
		any = true
	}
	if run("sweep") {
		fmt.Print(experiment.RenderSweep(experiment.CleanlinessSweep(cfg, nil)), "\n")
		any = true
	}
	// The overload sweep measures wall-clock admission behaviour under live
	// load, so it only runs when asked for by name, never under -fig all.
	if *fig == "overload" {
		rows := experiment.OverloadSweep(*overloadDur)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				fmt.Fprintf(os.Stderr, "encoding overload sweep: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Print(experiment.RenderOverload(rows), "\n")
		}
		any = true
	}
	// The eval benchmark measures wall-clock cold/warm evaluation,
	// so like the overload sweep it only runs when asked for by name. With
	// -json it records the run into BENCH_eval.json, the repo's evaluation
	// performance trajectory.
	if *fig == "eval" {
		rep := experiment.EvalBench(experiment.EvalBenchOpts{
			Soccer:   cfg.Soccer,
			StoreDir: scfg.Dir,
		})
		if *jsonOut {
			f, err := os.Create("BENCH_eval.json")
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating BENCH_eval.json: %v\n", err)
				os.Exit(1)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "encoding eval benchmark: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "closing BENCH_eval.json: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("wrote BENCH_eval.json")
		} else {
			fmt.Print(experiment.RenderEvalBench(rep), "\n")
		}
		if d := rep.Divergence(); d != "" {
			fmt.Fprintf(os.Stderr, "eval benchmark: %s\n", d)
			os.Exit(1)
		}
		any = true
	}
	// The IVM benchmark measures wall-clock per-edit maintenance against cold
	// re-evaluation, so like eval it only runs when asked for by name. With
	// -json it records the run into BENCH_ivm.json, the repo's incremental-
	// maintenance trajectory.
	if *fig == "ivm" {
		rep := experiment.IVMBench(experiment.IVMBenchOpts{
			Edits:  *ivmEdits,
			Seed:   int64(*seeds),
			Soccer: cfg.Soccer,
		})
		if *jsonOut {
			f, err := os.Create("BENCH_ivm.json")
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating BENCH_ivm.json: %v\n", err)
				os.Exit(1)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "encoding ivm benchmark: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "closing BENCH_ivm.json: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("wrote BENCH_ivm.json")
		} else {
			fmt.Print(experiment.RenderIVMBench(rep), "\n")
		}
		if !rep.Identical {
			fmt.Fprintln(os.Stderr, "ivm benchmark: maintained evaluation diverged from cold re-evaluation")
			os.Exit(1)
		}
		any = true
	}
	// The metamorphic sweep drives seeded random SQL/Datalog workloads through
	// the full equivalence-oracle battery (internal/metamorph). It exits
	// nonzero on any divergence, with the shrunk reproduction in the report —
	// CI runs it full-width as the frontend/eval-stack gate.
	if *fig == "metamorph" {
		rec := obs.New()
		metamorph.Instrument(rec)
		rep, err := metamorph.Run(metamorph.Options{Seeds: *metamorphSeeds, KeepGoing: true})
		metamorph.Instrument(nil)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if encErr := enc.Encode(rep); encErr != nil {
				fmt.Fprintf(os.Stderr, "encoding metamorph report: %v\n", encErr)
				os.Exit(1)
			}
		} else {
			fmt.Print(rep.Render())
			fmt.Printf("counters: workloads=%d divergences=%d\n",
				rec.Snapshot().Counters[metamorph.MetricWorkloads],
				rec.Snapshot().Counters[metamorph.MetricDivergences])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "metamorphic sweep: %v\n", err)
			os.Exit(1)
		}
		any = true
	}
	// The cluster soak drives thousands of submissions through a 3-replica
	// in-process cluster under a kill/restart chaos loop with a 30%-faulty
	// crowd, then audits every journal for exactly-once execution. It is a
	// wall-clock robustness exercise, so like overload it only runs by name.
	if *fig == "cluster" {
		rep, err := cluster.RunSoak(cluster.SoakOptions{
			Seed:        int64(*seeds),
			Submissions: *clusterSubs,
			KillCycles:  *clusterKills,
			FaultRate:   0.3,
			Timeout:     10 * time.Minute,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster soak: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "encoding cluster soak: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Printf("cluster soak: %d submissions (%d acked, %d shed), %d kills\n",
				rep.Submissions, rep.Acked, rep.Unacked, rep.Kills)
			fmt.Printf("  takeovers %d (%d jobs adopted), answers replayed %d, boot fences %d, full syncs %d, forwarded %d\n",
				rep.Takeovers, rep.TakeoverJobs, rep.Replayed, rep.BootHandoffs, rep.FullSyncs, rep.Forwarded)
			fmt.Printf("  terminal states: %v\n", rep.States)
			fmt.Println("  exactly-once journal audit: PASS")
		}
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 3a..3f, 4, dbgroup, sweep, errsweep, heuristics, overload, eval, ivm, cluster, metamorph, all)\n", *fig)
		os.Exit(2)
	}
}
