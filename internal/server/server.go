// Package server implements the bfdnd HTTP daemon (DESIGN.md S24): a
// long-running, cancellation-aware front end over the bfdn facade and the
// parallel sweep engine (internal/sweep) — reproduction infrastructure
// serving the paper's algorithms over HTTP, with no paper semantics of
// its own.
//
// The daemon is stdlib-only and built around three ideas:
//
//   - Bounded admission. Every simulation request is a job. At most
//     Config.MaxJobs jobs execute concurrently; at most Config.QueueDepth
//     more may wait for a slot. Requests beyond that are rejected
//     immediately with 429, so a traffic burst degrades into fast
//     rejections instead of unbounded memory growth.
//
//   - Cancellation end to end. Each job runs under a context derived from
//     the HTTP request with a per-request deadline; the context reaches
//     sim.RunContext's per-round check, so a client disconnect or deadline
//     stops the simulation within one round.
//
//   - Graceful drain. Shutdown flips the server into draining mode (new
//     requests get 503) and waits for every in-flight job to finish, which
//     is what a SIGTERM handler wants to do before closing the listener.
//
// Endpoints: POST /v1/explore (one exploration, JSON report), POST /v1/sweep
// (a grid of synchronous runs, streamed as JSONL in point order), POST
// /v1/asyncsweep (its continuous-time counterpart: a grid of asynchronous
// runs with per-robot speeds and latency models, same streaming and
// seed/indexBase sharding contract), GET /healthz, GET
// /capacity (the admission limits and a load snapshot, read by the
// distributed sweep coordinator in internal/dsweep for weighted sharding),
// GET /metrics (Prometheus text exposition of the per-Server registry), and
// net/http/pprof under /debug/pprof/.
//
// Observability is per-Server: every Server owns an obs.Registry (request
// latency histograms by endpoint and status, admission gauges and rejection
// counters, the sweep engine's point-latency recorder, live exploration
// progress counters) and a structured job log — each admitted job gets a
// monotonically increasing ID, returned in the X-Bfdnd-Job response header
// and carried through the slog records from admission to completion.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bfdn"
	"bfdn/internal/dsweep"
	"bfdn/internal/obs/tracing"
)

// Config tunes the daemon. The zero value selects sensible defaults.
type Config struct {
	// MaxJobs is the number of simulation jobs executing concurrently;
	// ≤ 0 selects GOMAXPROCS.
	MaxJobs int
	// QueueDepth is how many admitted jobs may wait for an execution slot
	// before new requests are rejected with 429; ≤ 0 selects 64.
	QueueDepth int
	// SweepWorkers is the worker-pool size inside each sweep job; ≤ 0
	// selects GOMAXPROCS. Total simulation parallelism is bounded by
	// MaxJobs × SweepWorkers.
	SweepWorkers int
	// DefaultTimeout bounds a request's simulation when the request does
	// not set timeoutMs; ≤ 0 selects 60s. MaxTimeout caps client-requested
	// deadlines; ≤ 0 selects 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxNodes caps the tree size, the tree depth and the robot count a
	// request may ask for (≤ 0 → 2,000,000); MaxPoints caps the number of
	// points in one sweep (≤ 0 → 10,000).
	MaxNodes  int
	MaxPoints int
	// Logger receives structured job-lifecycle records (admission,
	// completion, rejection) with per-job IDs; nil discards them.
	Logger *slog.Logger
	// Tracer, when non-nil, records distributed-tracing spans for every
	// job (admission→queue→run, plus engine spans below them), continuing
	// inbound W3C traceparent headers so a coordinator's trace covers its
	// workers. The ring is exported on GET /debug/traces; nil disables
	// tracing at zero cost.
	Tracer *tracing.Tracer
	// Store, when non-nil, makes sweep jobs persistent and resumable
	// (DESIGN.md S30): /v1/sweep and /v1/asyncsweep journal completed points
	// under a content-addressed job ID, GET /v1/jobs lists the store, and
	// POST /v1/resume re-drives an interrupted job from its journal. The
	// store's durability hooks feed the bfdnd_jobstore_* counters. Nil
	// disables the persistence endpoints (they answer 404).
	Store *bfdn.JobStore
	// Registry, when non-nil, hosts the fleet-membership endpoints (POST
	// /v1/register, GET /v1/workers) that replace static worker lists: every
	// bfdnd can carry the gossip-converged view of the live fleet. Nil
	// disables them (404).
	Registry *dsweep.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 2_000_000
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 10_000
	}
	return c
}

// Server is the daemon state behind the HTTP handler. Create with New; the
// zero value is not usable.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time
	// endpoints records every route registered through route(), in
	// registration order — the served surface the OPERATIONS.md endpoint
	// drift check compares against the documented one.
	endpoints []string

	// m is the per-Server metrics registry; log receives job-lifecycle
	// records; tr records spans (nil = tracing off); jobSeq issues the
	// per-job IDs metrics, logs and spans all carry.
	m      *metrics
	log    *slog.Logger
	tr     *tracing.Tracer
	jobSeq atomic.Uint64

	// sem holds one token per executing job; queued counts jobs waiting
	// for a token (bounded by cfg.QueueDepth).
	sem    chan struct{}
	queued atomic.Int64

	// mu guards closing; jobs tracks handlers between beginJob and endJob
	// so Shutdown can drain them.
	mu      sync.Mutex
	closing bool
	jobs    sync.WaitGroup

	inflight atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64

	// testJobStart, when non-nil, runs at the start of every job with its
	// execution slot held. Tests use it to hold jobs open deterministically.
	testJobStart func()
}

// New builds a Server; serve its Handler with net/http (or httptest).
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
		m:     newMetrics(),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.New(discardHandler{})
	}
	s.tr = s.cfg.Tracer
	s.sem = make(chan struct{}, s.cfg.MaxJobs)
	if s.cfg.Store != nil {
		// Durability hooks drive the bfdnd_jobstore_* counters: one tick per
		// fsynced WAL append and per atomic snapshot replacement.
		s.cfg.Store.Store().SetHooks(s.m.jsAppends.Inc, s.m.jsSnapshots.Inc)
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/explore", s.instrument("explore", s.handleExplore))
	s.route("POST /v1/sweep", s.instrument("sweep", syncSweep.handler(s)))
	s.route("POST /v1/asyncsweep", s.instrument("asyncsweep", asyncSweep.handler(s)))
	s.route("POST /v1/resume", s.instrument("resume", s.handleResume))
	s.route("GET /v1/jobs", s.instrument("jobs", s.handleJobs))
	s.route("POST /v1/register", s.instrument("register", s.handleRegister))
	s.route("GET /v1/workers", s.instrument("workers", s.handleWorkers))
	s.route("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.route("GET /capacity", s.instrument("capacity", s.handleCapacity))
	s.routeHandler("GET /metrics", s.m.reg.Handler())
	s.route("GET /debug/traces", s.handleTraces)
	s.route("GET /debug/exemplars", s.handleExemplars)
	// The pprof index route stands in for the whole /debug/pprof/ family in
	// the endpoint catalog; the sub-routes below are stdlib plumbing.
	s.route("GET /debug/pprof/", netpprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	return s
}

// route registers pattern in the mux and in the served-endpoint catalog.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.routeHandler(pattern, h)
}

func (s *Server) routeHandler(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.endpoints = append(s.endpoints, pattern)
}

// Endpoints returns the daemon's HTTP surface as "METHOD /path" patterns in
// registration order (pprof sub-routes are summarized by their index route).
// It is the source of truth for the OPERATIONS.md endpoint drift check
// (internal/opscheck, run by scripts/checkdocs.sh): the runbook must
// document exactly the endpoints the daemon serves.
func Endpoints() []string {
	return New(Config{}).endpoints
}

// discardHandler is the nil-Config.Logger sink (log/slog gained a stock one
// only after this module's go directive).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new jobs are refused with 503 immediately,
// and Shutdown blocks until every in-flight job (executing or queued) has
// finished or ctx expires. It is the SIGTERM half of a graceful stop; close
// the listener (http.Server.Shutdown) after it returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %d jobs still in flight: %w", s.inflight.Load(), ctx.Err())
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// errQueueFull is mapped to 429 by the handlers.
var errQueueFull = errors.New("server: job queue full")

// beginJob admits a request into the drain-tracked job set. It fails only
// when the server is draining; every successful call must be paired with
// endJob.
func (s *Server) beginJob() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.jobs.Add(1)
	return true
}

func (s *Server) endJob() { s.jobs.Done() }

// acquireSlot blocks until a job execution slot is free, the queue bound is
// exceeded (errQueueFull), or ctx expires. Pair with releaseSlot.
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		return errQueueFull
	}
	s.m.queued.Inc()
	defer func() {
		s.queued.Add(-1)
		s.m.queued.Dec()
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseSlot() { <-s.sem }

// requestContext derives the job context: the request's context (canceled on
// client disconnect) plus the per-request deadline.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// runJob funnels every endpoint through the same admission path: drain
// check, queue-bounded slot acquisition, gauges, the job log, and the test
// hook. job runs with the slot held, under a context that carries the
// job's span when tracing is on. Each admission attempt gets a job ID that
// is returned in the X-Bfdnd-Job header and stamped on every log record,
// so one job's admission, start and completion lines correlate.
//
// With a tracer configured the job becomes a span tree — bfdnd.<endpoint>
// covering admission to completion, bfdnd.queue for the slot wait,
// bfdnd.run for the handler body — continuing the caller's trace when the
// request carries a traceparent header (the dsweep coordinator injects
// one per shard). The trace ID is attached to every slog record of the
// job and echoed in the X-Bfdnd-Trace response header, and the job body
// runs under pprof labels (endpoint, job), so CPU profiles segment by
// endpoint and job too.
func (s *Server) runJob(ctx context.Context, w http.ResponseWriter, r *http.Request, endpoint string, job func(context.Context)) bool {
	jobID := s.jobSeq.Add(1)
	ctx, jobSpan := s.tr.Trace(ctx, "bfdnd."+endpoint, tracing.Extract(r.Header),
		tracing.Int64("job", int64(jobID)))
	defer jobSpan.End()
	log := s.log.With("job", jobID, "endpoint", endpoint)
	if jobSpan != nil {
		ref := jobSpan.Ref()
		log = log.With("trace", ref.Trace.String(), "span", ref.Span.String())
		w.Header().Set("X-Bfdnd-Trace", ref.Trace.String())
	}
	reject := func(reason string) {
		s.rejected.Add(1)
		s.m.rejected.Inc()
		jobSpan.SetAttr(tracing.String("rejected", reason))
		log.Warn("job rejected", "reason", reason)
	}
	if !s.beginJob() {
		reject("draining")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	defer s.endJob()
	admitted := time.Now()
	_, queueSpan := tracing.Start(ctx, "bfdnd.queue")
	err := s.acquireSlot(ctx)
	queueSpan.End()
	if err != nil {
		if errors.Is(err, errQueueFull) {
			reject("queue_full")
			writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
		} else {
			reject("queued_deadline")
			writeError(w, http.StatusServiceUnavailable, "deadline expired while queued")
		}
		return false
	}
	defer s.releaseSlot()
	s.inflight.Add(1)
	s.m.inflight.Inc()
	w.Header().Set("X-Bfdnd-Job", fmt.Sprint(jobID))
	start := time.Now()
	log.Info("job start", "queued_ms", start.Sub(admitted).Milliseconds())
	defer func() {
		s.inflight.Add(-1)
		s.m.inflight.Dec()
		s.served.Add(1)
		log.Info("job done", "elapsed_ms", time.Since(start).Milliseconds())
	}()
	if s.testJobStart != nil {
		s.testJobStart()
	}
	rctx, runSpan := tracing.Start(ctx, "bfdnd.run")
	defer runSpan.End()
	pprof.Do(rctx, pprof.Labels("endpoint", endpoint, "job", strconv.FormatUint(jobID, 10)), job)
	return true
}

// handleTraces exports the tracer's span ring as JSONL (optionally
// filtered by ?trace=<32 hex>); 404 when tracing is not configured.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tr == nil {
		writeError(w, http.StatusNotFound, "tracing is not configured (start bfdnd with -tracebuf > 0)")
		return
	}
	s.tr.Handler().ServeHTTP(w, r)
}

type healthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptimeMs"`
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
	Served   int64  `json:"served"`
	Rejected int64  `json:"rejected"`
	MaxJobs  int    `json:"maxJobs"`
	Queue    int    `json:"queueDepth"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Inflight: s.inflight.Load(),
		Queued:   s.queued.Load(),
		Served:   s.served.Load(),
		Rejected: s.rejected.Load(),
		MaxJobs:  s.cfg.MaxJobs,
		Queue:    s.cfg.QueueDepth,
	}
	code := http.StatusOK
	if s.Draining() {
		// Load balancers read 503 as "stop routing here" during drain.
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client disconnects are not server errors
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// decodeJSON reads a size-limited JSON body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	const maxBody = 8 << 20 // parents arrays for large trees fit well within 8 MiB
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// checkSize refuses a depth or robot count above MaxNodes before a tree or
// world is built: the spider, comb, caterpillar, broom and uneven
// generators grow with the depth, and a world's tables with the robots.
func (s *Server) checkSize(depth, robots int) error {
	if depth > s.cfg.MaxNodes {
		return fmt.Errorf("depth = %d exceeds the limit %d", depth, s.cfg.MaxNodes)
	}
	if robots > s.cfg.MaxNodes {
		return fmt.Errorf("%d robots exceed the limit %d", robots, s.cfg.MaxNodes)
	}
	return nil
}

// buildTree materializes a request's tree: an explicit parent array when
// given, a generator family otherwise.
func (s *Server) buildTree(family string, n, depth int, seed int64, parents []int32) (*bfdn.Tree, error) {
	if len(parents) > 0 {
		if len(parents) > s.cfg.MaxNodes {
			return nil, fmt.Errorf("tree has %d nodes, limit is %d", len(parents), s.cfg.MaxNodes)
		}
		return bfdn.NewTree(parents)
	}
	if n < 1 {
		return nil, fmt.Errorf("need n ≥ 1, got %d", n)
	}
	if n > s.cfg.MaxNodes {
		return nil, fmt.Errorf("n = %d exceeds the limit %d", n, s.cfg.MaxNodes)
	}
	return bfdn.GenerateTree(bfdn.Family(family), n, depth, seed)
}
