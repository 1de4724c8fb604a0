// Command qocoserver runs QOCO as a web service (the paper's Figure 5
// deployment): a crowd console at / serves pending questions to crowd
// members, while cleaning jobs are started over the versioned JSON API.
//
//	qocoserver -addr :8080 -dataset figure1
//
// then, in another terminal:
//
//	curl -X POST localhost:8080/api/v1/clean -d '{"sql": "SELECT t.name FROM Teams t WHERE t.continent = '\''EU'\''"}'
//
// and answer the questions in a browser at http://localhost:8080/. Live
// process metrics are served at /api/v1/metrics; -debug additionally mounts
// the net/http/pprof profiling handlers under /debug/pprof/. The server
// shuts down cleanly on SIGINT/SIGTERM: pending crowd questions are released
// with edit-free answers and in-flight requests get a grace period.
//
// Robustness (see docs/RESILIENCE.md): -question-deadline bounds how long a
// job waits on any one crowd question (expired questions are re-asked up to
// -max-reasks times, then degrade to the edit-free default), and -journal
// names a WAL-style job journal from which interrupted jobs are recovered on
// the next boot, replaying their already-collected answers; -compact-journal
// additionally rewrites it on boot, dropping finished jobs.
//
// Overload protection (see docs/OPERATIONS.md): every submission passes an
// admission controller tuned by -max-jobs, -rate/-burst, and
// -queue/-queue-timeout; excess load is shed with 429/503 responses carrying
// Retry-After hints. /healthz serves liveness and /readyz readiness (not
// ready while draining, the journal is failing, or the admission queue is
// saturated). Shutdown drains first: admission stops, -drain-timeout lets
// in-flight jobs finish, then remaining questions are released edit-free.
//
// Clustering (see docs/CLUSTER.md): -peers plus -replica-id joins a static
// cluster — submissions are routed to their consistent-hash owner (proxied,
// or 307-redirected with -cluster-route redirect) and peers are
// health-probed every -cluster-probe. Adding -replication DIR (requires
// -journal) ships every job-journal event to this replica's successor; when
// a replica dies its successor replays the shipped journal and resumes its
// jobs, and the dead replica's restart is fenced so nothing runs twice.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/storecfg"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "qocoserver: %v\n", err)
		os.Exit(1)
	}
}

// loadDataset builds the named built-in database. For figure1 it also
// returns the ground truth (the paper's DG) so the caller can report how far
// the dirty instance is from it; the synthetic generators are their own
// ground truth and return nil.
func loadDataset(name string) (d, dg *db.Database, err error) {
	switch name {
	case "figure1":
		d, dg = dataset.Figure1()
		return d, dg, nil
	case "soccer":
		return dataset.Soccer(dataset.SoccerOpts{}), nil, nil
	case "dbgroup":
		return dataset.DBGroup(), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want figure1, soccer, or dbgroup)", name)
	}
}

// checkNotNegative refuses a negative value of any of the named int, float64
// or duration flags, naming the flag. Zero keeps its documented meaning.
func checkNotNegative(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		f := fs.Lookup(name)
		var negative bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			negative = v < 0
		case float64:
			negative = v < 0
		case time.Duration:
			negative = v < 0
		}
		if negative {
			return fmt.Errorf("-%s %s: must not be negative", name, f.Value)
		}
	}
	return nil
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	ds := flag.String("dataset", "figure1", "built-in dataset: figure1, soccer, dbgroup")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	grace := flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight requests")
	questionDeadline := flag.Duration("question-deadline", 0,
		"how long each crowd question waits for an answer before being re-asked (0 disables expiry)")
	maxReasks := flag.Int("max-reasks", 2,
		"re-asks after a question's first deadline expiry before it degrades to the edit-free default")
	journal := flag.String("journal", "",
		"path of the job journal; jobs interrupted by a crash or restart are recovered from it on boot")
	compactJournal := flag.Bool("compact-journal", false,
		"rewrite the job journal on boot, dropping finished jobs so it stops growing with server lifetime")
	maxJobs := flag.Int("max-jobs", 64, "ceiling on simultaneously-running cleaning jobs")
	rate := flag.Float64("rate", 0, "global submission rate limit in jobs/second (0 disables)")
	burst := flag.Float64("burst", 0, "token-bucket burst for -rate (0 means max(rate, 1))")
	queueCap := flag.Int("queue", 0, "admission queue capacity (0 means 4*max-jobs)")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second,
		"how long a queued submission may wait for a job slot before it is shed with 503")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight jobs to finish after admission stops")
	questionHistory := flag.Int("question-history", server.DefaultQuestionHistory,
		"resolved crowd questions retained at /api/v1/questions/log (0 disables)")
	ivm := flag.Bool("ivm", true,
		"maintained (incremental view maintenance) evaluation: cleaning jobs propagate each edit as a delta through materialized views instead of re-evaluating the query cold (see docs/EVAL.md)")
	compactEvery := flag.Duration("compact-store", 0,
		"background disk-store compaction interval (0 disables); each run rewrites the store log once its garbage passes -compact-garbage")
	compactGarbage := flag.Float64("compact-garbage", 0.5,
		"garbage ratio (dead records / total records) at which the store log is compacted")
	peersFlag := flag.String("peers", "",
		"cluster membership as comma-separated id=url pairs (e.g. r0=http://h0:8080,r1=http://h1:8080); empty runs single-node")
	replicaID := flag.String("replica-id", "",
		"this replica's id within -peers (required when -peers is set)")
	replicationDir := flag.String("replication", "",
		"directory for received replica journals; enables synchronous journal replication to this replica's successor (requires -journal and -peers)")
	clusterProbe := flag.Duration("cluster-probe", 2*time.Second,
		"cluster health-probe interval against each peer's /readyz")
	clusterRoute := flag.String("cluster-route", "proxy",
		"how submissions reach their ring owner: proxy (transparent) or redirect (307)")
	scfg := storecfg.Register(flag.CommandLine)
	flag.Parse()
	if err := checkNotNegative(flag.CommandLine, "max-jobs", "queue", "rate", "burst", "queue-timeout"); err != nil {
		return err
	}

	seed, dg, err := loadDataset(*ds)
	if err != nil {
		return err
	}
	d, err := scfg.Materialize(seed)
	var bootErr error
	if err != nil {
		if !errors.Is(err, db.ErrCorrupt) {
			return err
		}
		// Detected storage corruption: boot degraded instead of crash-looping.
		// The store stays quarantined, /readyz reports not-ready with the
		// typed error, and data endpoints return 503 until an operator runs
		// the recovery runbook (docs/OPERATIONS.md) and restarts.
		log.Printf("storage corruption detected: %v", err)
		log.Printf("booting DEGRADED with an empty in-memory placeholder; see docs/OPERATIONS.md (quarantine runbook)")
		bootErr = err
		d = db.New(seed.Schema())
	}
	defer d.Close()

	srv := server.New(d, core.Config{Incremental: *ivm})
	if bootErr != nil {
		srv.SetStoreError(bootErr)
	}
	// Route evaluator and wal metrics (witness enumeration latencies, torn-tail
	// recoveries, journal append failures) into the same recorder the server
	// serves at /api/v1/metrics.
	eval.Instrument(srv.Obs())
	wal.Instrument(srv.Obs())
	db.Instrument(srv.Obs())
	if *questionDeadline > 0 {
		srv.Queue().SetDeadline(*questionDeadline, *maxReasks)
	}
	srv.Queue().SetHistoryLimit(*questionHistory)
	srv.SetAdmission(admission.NewController(admission.Options{
		MaxConcurrent: *maxJobs,
		Rate:          *rate,
		Burst:         *burst,
		QueueCap:      *queueCap,
		QueueTimeout:  *queueTimeout,
		Obs:           srv.Obs(),
	}))
	clustered := *peersFlag != ""
	if *replicationDir != "" {
		if !clustered {
			return errors.New("-replication requires -peers")
		}
		if *journal == "" {
			return errors.New("-replication requires -journal (replication ships the job journal)")
		}
	}
	var jobLog *wal.JobLog
	var records []wal.JobRecord
	if *journal != "" {
		log.Printf("opening job journal %s", *journal)
		var walOpts []wal.JobLogOption
		if *compactJournal {
			walOpts = append(walOpts, wal.WithCompaction())
		}
		jl, recs, err := wal.OpenJobLog(*journal, walOpts...)
		if err != nil {
			return err
		}
		jobLog, records = jl, recs
		defer jobLog.Close()
		srv.SetJobLog(jobLog)
	}

	// Cluster mode: routing, membership, and (with -replication) journal
	// replication with failover. Journal recovery runs through the node's
	// boot-fencing path so jobs already claimed by a takeover are skipped.
	var node *cluster.Node
	if clustered {
		peers, err := cluster.ParsePeers(*peersFlag)
		if err != nil {
			return err
		}
		if *replicaID == "" {
			return errors.New("-peers requires -replica-id")
		}
		switch *clusterRoute {
		case "proxy", "redirect":
		default:
			return fmt.Errorf("unknown -cluster-route %q (want proxy or redirect)", *clusterRoute)
		}
		node, err = cluster.NewNode(srv, jobLog, records, cluster.Config{
			Self:          *replicaID,
			Peers:         peers,
			Dir:           *replicationDir,
			Replicate:     *replicationDir != "",
			Redirect:      *clusterRoute == "redirect",
			ProbeInterval: *clusterProbe,
			Obs:           srv.Obs(),
			Logf:          log.Printf,
		})
		if err != nil {
			return err
		}
		resumed, rerr := node.BootRecover(records)
		if rerr != nil {
			log.Printf("recovery: %v", rerr)
		}
		if resumed > 0 {
			log.Printf("recovered %d interrupted job(s) from the journal", resumed)
		}
		node.Start()
		log.Printf("cluster: replica %s of %d peers (replication %v, routing %s)",
			*replicaID, len(peers), *replicationDir != "", *clusterRoute)
	} else if jobLog != nil {
		resumed, rerr := srv.Recover(records)
		if rerr != nil {
			log.Printf("recovery: %v", rerr)
		}
		if resumed > 0 {
			log.Printf("recovered %d interrupted job(s) from the journal", resumed)
		}
	}

	// Background log compaction: reclaim dead records from the disk
	// store on a timer, pausing while the server drains (compaction takes
	// the database write lock, which would stall a draining job's exit).
	// The period is jittered ±10% per cycle so a fleet of replicas started
	// together (or restarted by the same supervisor) doesn't compact — and
	// take the database write lock — in lockstep.
	compactDone := make(chan struct{})
	if *compactEvery > 0 {
		go func() {
			jittered := func() time.Duration {
				base := float64(*compactEvery)
				return time.Duration(base*0.9 + rand.Float64()*0.2*base)
			}
			timer := time.NewTimer(jittered())
			defer timer.Stop()
			for {
				select {
				case <-compactDone:
					return
				case <-timer.C:
				}
				timer.Reset(jittered())
				if srv.Draining() || srv.StoreError() != nil {
					continue
				}
				res, ok, err := srv.CompactStore(*compactGarbage)
				if err != nil {
					log.Printf("store compaction: %v", err)
					continue
				}
				if !ok {
					return // in-memory backend: nothing will ever compact
				}
				if res.RecordsDropped > 0 {
					log.Printf("store compaction: %d dead record(s), %d -> %d bytes",
						res.RecordsDropped, res.BytesBefore, res.BytesAfter)
				}
			}
		}()
	}
	defer close(compactDone)

	mux := http.NewServeMux()
	if node != nil {
		mux.Handle("/", node.Handler())
	} else {
		mux.Handle("/", srv.Handler())
	}
	if *debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	st := d.Stats()
	log.Printf("QOCO crowd console on http://localhost%s/ (dataset %s, %d tuples, %s store)", *addr, *ds, d.Len(), st.Backend)
	if dg != nil {
		log.Printf("ground truth loaded: %d tuples (the crowd is expected to know it)", dg.Len())
	}
	if *debug {
		log.Printf("pprof enabled at http://localhost%s/debug/pprof/", *addr)
	}

	select {
	case err := <-errCh:
		return err // ListenAndServe failed before any signal
	case <-ctx.Done():
	}
	// Drain first: stop admitting (readiness flips, so load balancers route
	// away) and give in-flight jobs a window to finish on their own before
	// their crowd questions are force-released.
	log.Printf("shutting down: draining (%d job(s) in flight, waiting up to %s)", srv.ActiveJobs(), *drainTimeout)
	srv.Drain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	err = srv.DrainWait(drainCtx)
	cancelDrain()
	if err != nil {
		log.Printf("drain: %v", err)
	}
	log.Printf("releasing pending crowd questions")
	if node != nil {
		// Stop probing only after the drain window. Journal shipping goes on
		// until the journal closes, so the end record of a job that finishes
		// during shutdown still reaches the successor.
		node.Stop()
	}
	// Unblock oracle calls so any remaining cleaning jobs finish with
	// edit-free answers instead of holding Shutdown past the grace period.
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
