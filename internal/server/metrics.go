package server

import (
	"net/http"
	"strconv"
	"time"

	"bfdn/internal/obs"
	"bfdn/internal/sweep"
)

// metrics is the daemon's observability surface: one obs.Registry per
// Server, exposed as Prometheus text on GET /metrics. Nothing here is
// process-global — parallel Servers (one per httptest instance under test)
// each see only their own traffic, which the old expvar vars could not
// guarantee.
type metrics struct {
	reg *obs.Registry

	// requests counts requests per endpoint; requestDuration is the
	// per-endpoint, per-status latency histogram.
	requests        *obs.CounterVec
	requestDuration *obs.HistogramVec

	// inflight/queued mirror the admission state; rejected counts refusals
	// (queue full, draining, deadline expired while queued).
	inflight *obs.Gauge
	queued   *obs.Gauge
	rejected *obs.Counter

	// simRounds/simExplored stream live progress out of long explorations
	// via the sim observer hook: rounds simulated and nodes explored across
	// all /v1/explore jobs.
	simRounds   *obs.Counter
	simExplored *obs.Counter

	// Jobstore durability and resume counters (bfdnd_jobstore_*). The first
	// two tick from the store's hooks (one per fsynced WAL append, one per
	// atomic snapshot replacement); the last two tick from the sweep
	// handlers (resume requests accepted, points answered from a journal
	// instead of re-simulated). All four stay zero without Config.Store.
	jsAppends   *obs.Counter
	jsSnapshots *obs.Counter
	jsResumes   *obs.Counter
	jsReplayed  *obs.Counter

	// sweep is the engine recorder (bfdnd_sweep_*): point latency and
	// queue-wait histograms plus monotonic totals, merged in atomically per
	// completed sweep so concurrent sweeps never clobber each other.
	// asyncSweep is its continuous-time sibling (bfdnd_async_sweep_*), fed
	// by /v1/asyncsweep jobs; the prefixes keep the two engines' workloads
	// separable on one dashboard.
	sweep      *sweep.Recorder
	asyncSweep *sweep.Recorder
}

// MetricNames returns the canonical name of every instrument a fresh server
// registers, in registration order. It exists for the OPERATIONS.md drift
// check (internal/opscheck, run by scripts/checkdocs.sh): the catalog must
// list exactly the names the daemon actually exposes.
func MetricNames() []string {
	return newMetrics().reg.Names()
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg: reg,
		requests: reg.CounterVec("bfdnd_requests_total",
			"Requests received, by endpoint.", "endpoint"),
		requestDuration: reg.HistogramVec("bfdnd_request_duration_seconds",
			"Request latency, by endpoint and status code.",
			obs.DefDurationBuckets(), "endpoint", "status"),
		inflight: reg.Gauge("bfdnd_jobs_inflight",
			"Jobs currently executing."),
		queued: reg.Gauge("bfdnd_jobs_queued",
			"Admitted jobs waiting for an execution slot."),
		rejected: reg.Counter("bfdnd_jobs_rejected_total",
			"Jobs refused by admission (queue full, draining, or deadline expired while queued)."),
		simRounds: reg.Counter("bfdnd_sim_rounds_total",
			"Simulation rounds executed by /v1/explore jobs."),
		simExplored: reg.Counter("bfdnd_sim_explored_nodes_total",
			"Nodes explored by /v1/explore jobs."),
		jsAppends: reg.Counter("bfdnd_jobstore_wal_appends_total",
			"Durable (fsynced) WAL record appends across all jobs in the job store."),
		jsSnapshots: reg.Counter("bfdnd_jobstore_snapshots_total",
			"Atomic checkpoint snapshot replacements across all jobs in the job store."),
		jsResumes: reg.Counter("bfdnd_jobstore_resumes_total",
			"Resume requests accepted by POST /v1/resume."),
		jsReplayed: reg.Counter("bfdnd_jobstore_replayed_points_total",
			"Sweep points answered from a job's journal instead of being re-simulated."),
		sweep:      sweep.NewRecorder(reg),
		asyncSweep: sweep.NewNamedRecorder(reg, "bfdnd_async_sweep"),
	}
}

// statusWriter records the status code written by a handler so the request
// histogram can label it; it forwards Flush so JSONL sweep streaming keeps
// working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-endpoint request counter and the
// per-endpoint/per-status latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.With(endpoint).Inc()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		code := sw.code
		if code == 0 {
			// Nothing written: net/http sends 200 on handler return.
			code = http.StatusOK
		}
		s.m.requestDuration.With(endpoint, strconv.Itoa(code)).
			ObserveDuration(time.Since(start))
	}
}

// handleExemplars serves the point-duration histograms' trace exemplars:
// for each bucket with a traced observation, the most recent one's value
// and trace ID. It is the bridge from a hot latency bucket on GET /metrics
// to a concrete trace on GET /debug/traces?trace=<id> — exemplars populate
// only while a tracer is configured (spans are what carry trace IDs into
// the engine), so without one the map's lists are empty.
func (s *Server) handleExemplars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]obs.Exemplar{
		"bfdnd_sweep_point_duration_seconds":       s.m.sweep.PointDuration.Exemplars(),
		"bfdnd_async_sweep_point_duration_seconds": s.m.asyncSweep.PointDuration.Exemplars(),
	})
}
