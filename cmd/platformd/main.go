// Command platformd runs the crowdsourcing platform of the paper's Fig. 1
// as an HTTP daemon hosting a registry of concurrent campaigns: it
// pre-opens -campaigns generated task sets, accepts sealed submissions
// from worker agents (cmd/workeragent) over the /v2 protocol, and settles
// each campaign with DATE + the reverse auction when asked to close.
// Campaign k derives deterministically from seed+k, so worker agents
// started with the same seed produce coherent campaigns (a worker agent
// run without -campaign targets the first one), and operators can
// create further campaigns at runtime via POST /v2/campaigns.
//
// Campaign settles are admission-controlled: a registry-wide scheduler
// lets at most -max-settles campaigns run their two stages at once
// (further closes queue FIFO, observable via settle_admission in the
// campaign snapshot and GET /v2/stats), and all settles share one
// -sched-workers truth-discovery pool instead of spawning a pool each.
// The queue itself is bounded by -max-queued-settles: an overflowing
// close is rejected with 503 + Retry-After instead of queueing without
// bound (the typed client retries automatically).
//
// GET /v2/campaigns/{id}/estimate previews an open campaign's truth: one
// cold truth-discovery pass over the submissions so far, computed per
// request and admitted through the same settle scheduler, so
// -max-settles bounds estimate reads and settles together.
//
// With -data-dir the daemon is durable: every campaign mutation is
// logged to an event-sourced WAL (snapshotted and compacted every
// -snapshot-every events, fsynced per -fsync) before it is
// acknowledged, and a restart replays the directory — same campaign
// IDs, same submissions, bit-identical settled reports — then re-queues
// any settle the previous process did not survive. Seeded campaigns are
// only pre-opened when the data directory holds no prior state, so a
// restart resumes instead of duplicating. Graceful shutdown drains
// in-flight settles, then flushes and closes the store.
//
// With -metrics-addr the daemon opens a second listener exposing the
// whole platform's metrics (imc2_wire_*, imc2_sched_*, imc2_store_*,
// imc2_registry_*, imc2_truth_*) as Prometheus text on GET /metrics;
// -pprof additionally mounts net/http/pprof on that listener. Logs are
// structured (log/slog); -log-format selects text or json.
//
// With -trace the daemon records distributed-tracing spans: every
// request gets a root span (adopting an inbound W3C traceparent when
// present), and a close's settle carries one trace through admission
// wait, truth-discovery iterations, the auction, and the store's
// fsyncs. A fixed -trace-buffer flight recorder keeps recent traces
// plus every error trace and the slowest settles at or above
// -trace-slow-ms, served on GET /v2/traces and /v2/traces/{id}
// (pretty-print with workeragent -trace <id>). Reports are
// bit-identical traced or not.
//
// Usage:
//
//	platformd -addr :8080 -seed 42 -workers 40 -tasks 60 -campaigns 3 -max-settles 2
//	platformd -addr :8080 -data-dir /var/lib/imc2 -snapshot-every 256 -fsync settle
//	platformd -addr :8080 -metrics-addr 127.0.0.1:9090 -pprof -log-format json
//	platformd -addr :8080 -trace -trace-buffer 512 -trace-slow-ms 250
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"imc2/internal/gen"
	"imc2/internal/obs"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/tracing"
	"imc2/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "platformd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("platformd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		seed      = fs.Int64("seed", 42, "base campaign seed (worker agents must match; campaign k uses seed+k)")
		workers   = fs.Int("workers", 40, "worker population per campaign")
		tasks     = fs.Int("tasks", 60, "number of tasks to publicize per campaign")
		copiers   = fs.Int("copiers", 10, "copiers in the population")
		campaigns = fs.Int("campaigns", 1, "seeded campaigns to pre-open")
		mechanism = fs.String("mechanism", "ra", "auction mechanism: ra, ga, or gb")
		copyProb  = fs.Float64("r", 0.8, "DATE copy probability r")
		alpha     = fs.Float64("alpha", 0.05, "DATE dependence prior α")
		par       = fs.Int("parallelism", 0, "truth-discovery slots requested per settle (0 = GOMAXPROCS, 1 = serial; results are identical either way)")

		maxSettles   = fs.Int("max-settles", 2, "campaign settles allowed to run concurrently; further closes queue FIFO (0 = unlimited)")
		maxQueued    = fs.Int("max-queued-settles", 64, "settle admission queue depth; overflowing closes get 503 + Retry-After (0 = unbounded)")
		schedWorkers = fs.Int("sched-workers", 0, "shared settle worker pool size across all campaigns (0 = GOMAXPROCS)")

		dataDir       = fs.String("data-dir", "", "durable campaign store directory (empty = in-memory only; state dies with the process)")
		snapshotEvery = fs.Int("snapshot-every", 256, "fold a store snapshot and compact the WAL every N events (-1 = only on shutdown)")
		fsyncPolicy   = fs.String("fsync", "settle", "WAL fsync policy: settle (fsync on created/settled/cancelled), always, never")

		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus text on GET /metrics at this address (empty = metrics disabled)")
		pprofOn     = fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -metrics-addr listener")
		logFormat   = fs.String("log-format", "text", "structured log format: text or json")

		traceOn     = fs.Bool("trace", false, "record request/settle spans in an in-memory flight recorder (GET /v2/traces)")
		traceBuffer = fs.Int("trace-buffer", 256, "recent traces kept by the flight recorder (with -trace)")
		traceSlowMS = fs.Int("trace-slow-ms", 500, "settles at or above this duration compete for the slow-trace retention pool (with -trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *campaigns < 1 {
		return fmt.Errorf("-campaigns must be at least 1, got %d", *campaigns)
	}
	if *maxSettles < 0 {
		return fmt.Errorf("-max-settles must be >= 0, got %d", *maxSettles)
	}
	if *maxQueued < 0 {
		return fmt.Errorf("-max-queued-settles must be >= 0, got %d", *maxQueued)
	}
	if *schedWorkers < 0 {
		return fmt.Errorf("-sched-workers must be >= 0, got %d", *schedWorkers)
	}
	fsync, ok := store.ParseFsyncPolicy(*fsyncPolicy)
	if !ok {
		return fmt.Errorf("unknown -fsync policy %q (settle, always, never)", *fsyncPolicy)
	}
	if *pprofOn && *metricsAddr == "" {
		return fmt.Errorf("-pprof requires -metrics-addr (pprof is served on the metrics listener)")
	}
	if *traceBuffer < 1 {
		return fmt.Errorf("-trace-buffer must be at least 1, got %d", *traceBuffer)
	}
	if *traceSlowMS < 0 {
		return fmt.Errorf("-trace-slow-ms must be >= 0, got %d", *traceSlowMS)
	}
	slogger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}

	spec, err := gen.DemoSpec(*workers, *tasks, *copiers)
	if err != nil {
		return err
	}
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.CopyProb = *copyProb
	cfg.TruthOptions.PriorDependence = *alpha
	cfg.TruthOptions.Parallelism = *par
	mech, err := parseMechanism(*mechanism)
	if err != nil {
		return err
	}
	cfg.Mechanism = mech
	if err := cfg.TruthOptions.Validate(); err != nil {
		return err
	}

	logf := func(format string, args ...any) { slogger.Info(fmt.Sprintf(format, args...)) }
	// One metrics registry for the whole process: every subsystem hangs
	// its instruments off it, and the -metrics-addr listener scrapes it.
	// Nil (metrics disabled) keeps every hot path uninstrumented — the
	// subsystems skip even the clock reads.
	var obsReg *obs.Registry
	if *metricsAddr != "" {
		obsReg = obs.NewRegistry()
	}
	// One settle scheduler for the whole registry: concurrent closes
	// share a bounded pool and queue behind -max-settles instead of each
	// spinning up GOMAXPROCS goroutines. Reports are unaffected.
	scheduler := sched.New(sched.Config{
		Workers:              *schedWorkers,
		MaxConcurrentSettles: *maxSettles,
		MaxQueuedSettles:     *maxQueued,
		Obs:                  obsReg,
	})
	defer scheduler.Close()

	// The tracer's flight recorder is fixed-size: recent traces ride a
	// ring, while error traces and the slowest settles are retained past
	// eviction so the interesting ones survive a busy daemon.
	var tracer *tracing.Tracer
	if *traceOn {
		tracer = tracing.New(tracing.Options{
			Buffer:    *traceBuffer,
			SlowFloor: time.Duration(*traceSlowMS) * time.Millisecond,
		})
		registerTracingMetrics(obsReg, tracer)
		logf("tracing on: keeping %d recent traces plus errors and settles >= %dms — GET /v2/traces",
			*traceBuffer, *traceSlowMS)
	}

	regOpts := []registry.Option{
		registry.WithScheduler(scheduler),
		registry.WithObservability(obsReg),
		registry.WithTracing(tracer),
	}
	var st *store.FileStore
	if *dataDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *dataDir, SnapshotEvery: *snapshotEvery, Fsync: fsync, Obs: obsReg})
		if err != nil {
			return err
		}
		// Closed explicitly on the graceful path (after settles drain);
		// the deferred close only covers error exits, where it flushes
		// whatever was acknowledged.
		defer st.Close()
		regOpts = append(regOpts, registry.WithStore(st))
	}
	reg := registry.New(regOpts...)

	// Recover before seeding: a data directory with prior state resumes
	// it (same IDs, same submissions, bit-identical reports) instead of
	// opening duplicate seeded campaigns.
	var pending []*registry.Campaign
	recovered := 0
	if st != nil {
		var err error
		pending, err = reg.Restore(st.State().Campaigns(), st.RecoveredAt())
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		recovered = reg.Len()
		if recovered > 0 {
			logf("recovered %d campaigns from %s (%d events; %d settles to re-queue)",
				recovered, *dataDir, st.Stats().RecoveredEvents, len(pending))
		}
	}
	if recovered == 0 {
		for k := 0; k < *campaigns; k++ {
			c, err := gen.NewCampaign(spec, randx.New(*seed+int64(k)))
			if err != nil {
				return err
			}
			hosted, err := reg.Create(fmt.Sprintf("seed-%d", *seed+int64(k)), c.Dataset.Tasks(), cfg, false)
			if err != nil {
				return err
			}
			logf("campaign %s open: %d tasks published, expecting %d workers (seed %d)",
				hosted.ID(), *tasks, *workers, *seed+int64(k))
		}
	}

	srv := wire.NewRegistryServer(reg, "", cfg, logf,
		wire.WithObs(obsReg), wire.WithSlog(slogger), wire.WithTracing(tracer))
	// Finish what the crash interrupted: settles recorded as requested
	// but never settled re-enter the normal admission path.
	srv.ResumeSettles(pending)

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logf("listening on http://%s — %d campaigns under /v2/campaigns", *addr, reg.Len())
	logf("settle scheduler: max %d concurrent settles (0 = unlimited), %d shared pool workers",
		*maxSettles, scheduler.Pool().Workers())

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()

	// The metrics listener is separate from the serving listener so a
	// scrape (or a pprof profile) never competes with campaign traffic
	// for the accept queue, and so /metrics can stay loopback-only while
	// /v2 is public.
	var metricsServer *http.Server
	if *metricsAddr != "" {
		metricsServer = &http.Server{
			Addr:              *metricsAddr,
			Handler:           metricsMux(obsReg, *pprofOn),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if merr := metricsServer.ListenAndServe(); merr != nil && merr != http.ErrServerClosed {
				errCh <- fmt.Errorf("metrics listener: %w", merr)
			}
		}()
		logf("metrics on http://%s/metrics (pprof: %v)", *metricsAddr, *pprofOn)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logf("received %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Even if the listener cannot drain its connections in time,
		// carry on to the settle drain and the store close: returning
		// early would run the deferred store close while settles are
		// still in flight — the exact race this shutdown order exists
		// to prevent.
		err := httpServer.Shutdown(ctx)
		if metricsServer != nil {
			// Scrapes are quick; close the metrics listener outright so
			// the drain budget goes to campaign traffic and settles.
			metricsServer.Close()
		}
		// Drain in-flight asynchronous settles after the listener stops
		// — srv.Shutdown waits for them (aborting only at ctx expiry,
		// and then still waiting for the abort to land), so every
		// settle's final durable write happens before the store flushes
		// and closes below.
		if serr := srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
		if st != nil {
			if cerr := st.Close(); cerr != nil {
				logf("campaign store close failed: %v", cerr)
				if err == nil {
					err = cerr
				}
			} else {
				logf("campaign store flushed and closed (%s)", *dataDir)
			}
		}
		return err
	}
}

// newLogger builds the process logger in the requested format. Both
// formats write to stderr; "json" emits one object per record for log
// shippers, "text" stays human-readable.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
	}
}

// metricsMux assembles the -metrics-addr listener's routes: the
// Prometheus exposition, and — only when asked — the pprof handlers.
// pprof is mounted explicitly rather than via the package's
// DefaultServeMux side effect so it never leaks onto the serving mux.
func metricsMux(o *obs.Registry, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", o.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// registerTracingMetrics exposes the flight recorder's occupancy on the
// metrics listener so operators can see retention pressure (how many
// traces the ring holds, how many were evicted unretained) without
// scraping /v2/traces. No-op unless both subsystems are enabled.
func registerTracingMetrics(o *obs.Registry, tr *tracing.Tracer) {
	if o == nil || tr == nil {
		return
	}
	col := tr.Collector()
	o.GaugeFunc("imc2_tracing_recent_traces_count",
		"Traces in the flight recorder's recent ring.",
		func() float64 { return float64(col.Stats().RecentTraces) })
	o.GaugeFunc("imc2_tracing_error_traces_count",
		"Error traces retained past ring eviction.",
		func() float64 { return float64(col.Stats().ErrorTraces) })
	o.GaugeFunc("imc2_tracing_slow_traces_count",
		"Slow settle traces retained past ring eviction.",
		func() float64 { return float64(col.Stats().SlowTraces) })
	o.GaugeFunc("imc2_tracing_collected_traces_total",
		"Traces ever collected by the flight recorder.",
		func() float64 { return float64(col.Stats().Collected) })
	o.GaugeFunc("imc2_tracing_evicted_traces_total",
		"Traces evicted from the ring without error/slow retention.",
		func() float64 { return float64(col.Stats().Evicted) })
}

// parseMechanism maps the CLI name to a stage-2 mechanism.
func parseMechanism(name string) (platform.Mechanism, error) {
	switch name {
	case "ra":
		return platform.MechanismReverseAuction, nil
	case "ga":
		return platform.MechanismGreedyAccuracy, nil
	case "gb":
		return platform.MechanismGreedyBid, nil
	default:
		return 0, fmt.Errorf("unknown mechanism %q (ra, ga, gb)", name)
	}
}
