// Command bfdnd is the exploration service daemon: a long-running HTTP
// server over the bfdn facade and the parallel sweep engine, with bounded
// admission, per-request deadlines, end-to-end cancellation, and a graceful
// SIGTERM drain.
//
// Usage:
//
//	bfdnd                          # listen on :8080
//	bfdnd -addr :9000 -jobs 8      # 8 concurrent simulation jobs
//	bfdnd -queue 256 -timeout 30s  # deeper queue, tighter default deadline
//	bfdnd -logjson                 # structured logs as JSON lines
//
// Endpoints:
//
//	POST /v1/explore   one exploration run, JSON report
//	POST /v1/sweep     a (algorithm × tree × k) grid, streamed as JSONL
//	POST /v1/asyncsweep  a continuous-time (tree × fleet × algorithm ×
//	                   latency) grid on the async engine, streamed as JSONL
//	POST /v1/resume    re-drive a stored sweep or asyncsweep job from its
//	                   journal (-store)
//	GET  /v1/jobs      list the persistent job store (-store)
//	POST /v1/register  worker heartbeat into the fleet registry (-registry)
//	GET  /v1/workers   live fleet listing from the registry (-registry)
//	GET  /healthz      liveness + load snapshot (503 while draining)
//	GET  /capacity     admission limits + load, for distributed coordinators
//	GET  /metrics      Prometheus text exposition (bfdnd_*)
//	GET  /debug/pprof/ net/http/pprof profiles
//	GET  /debug/traces JSONL span export (?trace= filters one trace)
//	GET  /debug/exemplars  latency-bucket → recent trace ID exemplars
//
// Logging is structured (log/slog) on stderr: text by default, JSON lines
// with -logjson. Every admitted job logs start and completion records keyed
// by the job ID also returned in the X-Bfdnd-Job response header; with
// tracing enabled (-tracebuf > 0) those records also carry the trace and
// span IDs, and inbound W3C traceparent headers (a distributed coordinator's
// dispatch spans) are continued rather than starting fresh traces.
//
// On SIGINT/SIGTERM the daemon stops admitting jobs, drains in-flight work
// (bounded by -drain), then closes the listener.
//
// Several bfdnd instances form a sweep fleet: the distributed coordinator
// (bfdn.SweepDistributed, or experiments -workers) reads each instance's
// GET /capacity, shards a sweep across the fleet, and merges the streams
// back into one byte-identical JSONL. With -registry one instance hosts the
// fleet roster instead, workers announce themselves into it (-announce
// -advertise), and coordinators read GET /v1/workers in place of a static
// worker list. With -store the daemon journals every sweep into a persistent
// job store, so a crashed or interrupted job resumes from its journal
// (POST /v1/resume, or simply resubmitting the identical request) instead of
// recomputing. OPERATIONS.md is the fleet runbook; §6 covers crash recovery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bfdn"
	"bfdn/internal/dsweep"
	"bfdn/internal/obs/tracing"
	"bfdn/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bfdnd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		jobs         = flag.Int("jobs", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admitted jobs waiting for a slot before 429")
		sweepWorkers = flag.Int("sweepworkers", 0, "sweep-engine workers per job (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 60*time.Second, "default per-request simulation deadline")
		maxTimeout   = flag.Duration("maxtimeout", 10*time.Minute, "cap on client-requested deadlines")
		maxNodes     = flag.Int("maxnodes", 2_000_000, "largest tree a request may ask for")
		maxPoints    = flag.Int("maxpoints", 10_000, "most points in one sweep request")
		drain        = flag.Duration("drain", 30*time.Second, "grace period for in-flight work on shutdown")
		logJSON      = flag.Bool("logjson", false, "emit structured logs as JSON lines (default: text)")
		traceBuf     = flag.Int("tracebuf", 0, "span ring-buffer capacity; 0 disables tracing")
		traceSample  = flag.Int("tracesample", 64, "record 1 in N per-point spans inside traced sweeps")
		storeDir     = flag.String("store", "", "persistent job store directory; empty disables /v1/resume and /v1/jobs")
		registry     = flag.Bool("registry", false, "host the fleet registry (/v1/register, /v1/workers) on this daemon")
		registryTTL  = flag.Duration("registry-ttl", 15*time.Second, "worker lease TTL for the hosted registry")
		announce     = flag.String("announce", "", "registry base URL to heartbeat this worker into (needs -advertise)")
		advertise    = flag.String("advertise", "", "externally reachable base URL of this daemon, gossiped to peers")
	)
	flag.Parse()
	if *jobs < 0 || *sweepWorkers < 0 {
		return fmt.Errorf("need -jobs ≥ 0 and -sweepworkers ≥ 0 (0 = GOMAXPROCS), got %d and %d", *jobs, *sweepWorkers)
	}
	if *queue < 1 || *maxNodes < 1 || *maxPoints < 1 {
		return fmt.Errorf("need -queue, -maxnodes and -maxpoints ≥ 1")
	}
	if *traceBuf < 0 || *traceSample < 0 {
		return fmt.Errorf("need -tracebuf ≥ 0 and -tracesample ≥ 0, got %d and %d", *traceBuf, *traceSample)
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	var tracer *tracing.Tracer
	if *traceBuf > 0 {
		tracer = tracing.New(tracing.Config{Capacity: *traceBuf, SampleEvery: *traceSample})
	}

	var store *bfdn.JobStore
	if *storeDir != "" {
		var err error
		if store, err = bfdn.OpenJobStore(*storeDir); err != nil {
			return fmt.Errorf("open job store: %w", err)
		}
	}
	var reg *dsweep.Registry
	if *registry {
		reg = dsweep.NewRegistry(*registryTTL)
	}
	if *announce != "" && *advertise == "" {
		return errors.New("-announce needs -advertise (the URL peers reach this daemon at)")
	}

	srv := server.New(server.Config{
		MaxJobs:        *jobs,
		QueueDepth:     *queue,
		SweepWorkers:   *sweepWorkers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxNodes:       *maxNodes,
		MaxPoints:      *maxPoints,
		Logger:         logger,
		Tracer:         tracer,
		Store:          store,
		Registry:       reg,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *announce != "" {
		// The heartbeat loop keeps this worker's lease alive in the remote
		// registry and merges the registry's fleet view back, so every
		// announcing worker converges on the same roster.
		go dsweep.Announce(ctx, *announce, *advertise, reg, *registryTTL/3)
		logger.Info("announcing", "registry", *announce, "advertise", *advertise)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "jobs", *jobs, "queue", *queue)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Info("draining", "grace", drain.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain jobs first — new work is refused with 503 while existing runs
	// finish — then close the listener and let idle connections go.
	if err := srv.Shutdown(dctx); err != nil {
		logger.Warn("drain incomplete", "err", err.Error())
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("listener shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}
