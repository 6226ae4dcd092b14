package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bfdn/internal/obs"
	"bfdn/internal/obs/tracing"
)

// traceRecord mirrors the GET /debug/traces JSONL line shape.
type traceRecord struct {
	Trace      string            `json:"trace"`
	Span       string            `json:"span"`
	Parent     string            `json:"parent"`
	Name       string            `json:"name"`
	Start      int64             `json:"startUnixNano"`
	DurationNs int64             `json:"durationNs"`
	Attrs      map[string]string `json:"attrs"`
}

// fetchTrace pulls /debug/traces (optionally filtered) and decodes the lines.
func fetchTrace(t *testing.T, client *http.Client, base, trace string) []traceRecord {
	t.Helper()
	url := base + "/debug/traces"
	if trace != "" {
		url += "?trace=" + trace
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/debug/traces: Content-Type %q", ct)
	}
	var recs []traceRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec traceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// byName indexes trace records by span name (multiple spans may share one).
func byName(recs []traceRecord) map[string][]traceRecord {
	m := map[string][]traceRecord{}
	for _, r := range recs {
		m[r.Name] = append(m[r.Name], r)
	}
	return m
}

// TestTraceCoversJobAndEngine is the single-worker acceptance path: a traced
// sweep with an inbound traceparent yields one trace covering admission →
// queue → run → engine workers → sampled points, continues the remote trace
// ID, echoes it in X-Bfdnd-Trace, and stamps trace/span IDs on the job's
// slog records.
func TestTraceCoversJobAndEngine(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	srv := New(Config{
		SweepWorkers: 2,
		Logger:       logger,
		Tracer:       tracing.New(tracing.Config{SampleEvery: 1, Seed: 7}),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const remoteSpan = "00f067aa0ba902b7"
	body := `{"seed":5,"points":[
		{"family":"binary","n":80,"k":2},
		{"family":"path","n":60,"k":1},
		{"family":"comb","n":70,"k":3}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tracing.Header, "00-"+remoteTrace+"-"+remoteSpan+"-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bfdnd-Trace"); got != remoteTrace {
		t.Fatalf("X-Bfdnd-Trace = %q, want the inbound trace %q", got, remoteTrace)
	}
	// Do returns at the first flushed line, while workers still run. The
	// body ends only after the handler returns, by which time every job
	// span has ended and reached the ring.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}

	recs := fetchTrace(t, ts.Client(), ts.URL, remoteTrace)
	names := byName(recs)
	for _, r := range recs {
		if r.Trace != remoteTrace {
			t.Fatalf("span %s/%s escaped the trace filter", r.Name, r.Span)
		}
	}

	// The job root continues the coordinator's dispatch span.
	jobs := names["bfdnd.sweep"]
	if len(jobs) != 1 {
		t.Fatalf("bfdnd.sweep spans = %d, want 1 (have %v)", len(jobs), names)
	}
	job := jobs[0]
	if job.Parent != remoteSpan {
		t.Errorf("job parent = %q, want the remote span %q", job.Parent, remoteSpan)
	}

	// Admission and execution are children of the job span.
	for _, name := range []string{"bfdnd.queue", "bfdnd.run"} {
		spans := names[name]
		if len(spans) != 1 {
			t.Fatalf("%s spans = %d, want 1", name, len(spans))
		}
		if spans[0].Parent != job.Span {
			t.Errorf("%s parent = %q, want job span %q", name, spans[0].Parent, job.Span)
		}
	}

	// The engine hangs its worker spans under bfdnd.run, and at SampleEvery=1
	// every point span survives the bulk gate.
	run := names["bfdnd.run"][0]
	workers := names["sweep.worker"]
	if len(workers) == 0 {
		t.Fatal("no sweep.worker spans")
	}
	workerSpans := map[string]bool{}
	for _, w := range workers {
		if w.Parent != run.Span {
			t.Errorf("sweep.worker parent = %q, want bfdnd.run span %q", w.Parent, run.Span)
		}
		workerSpans[w.Span] = true
	}
	points := names["sweep.point"]
	if len(points) != 3 {
		t.Fatalf("sweep.point spans = %d, want 3 at SampleEvery=1", len(points))
	}
	for _, p := range points {
		if !workerSpans[p.Parent] {
			t.Errorf("sweep.point parent %q is not a sweep.worker span", p.Parent)
		}
	}

	// The job's slog records carry the same trace and the job root's span ID.
	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	sawStart := false
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec struct {
			Msg   string `json:"msg"`
			Trace string `json:"trace"`
			Span  string `json:"span"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec.Msg != "job start" && rec.Msg != "job done" {
			continue
		}
		sawStart = true
		if rec.Trace != remoteTrace {
			t.Errorf("log %q trace = %q, want %q", rec.Msg, rec.Trace, remoteTrace)
		}
		if rec.Span != job.Span {
			t.Errorf("log %q span = %q, want job span %q", rec.Msg, rec.Span, job.Span)
		}
	}
	if !sawStart {
		t.Fatalf("no job lifecycle records in:\n%s", logs)
	}
}

// TestTraceFreshRootWithoutTraceparent checks the un-propagated path: a job
// without an inbound traceparent starts its own trace, still echoed in
// X-Bfdnd-Trace so the client can pull it from /debug/traces.
func TestTraceFreshRootWithoutTraceparent(t *testing.T) {
	srv := New(Config{Tracer: tracing.New(tracing.Config{Seed: 9})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"family":"binary","n":60,"k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d %s", resp.StatusCode, data)
	}
	trace := resp.Header.Get("X-Bfdnd-Trace")
	if len(trace) != 32 {
		t.Fatalf("X-Bfdnd-Trace = %q, want 32 hex digits", trace)
	}
	recs := fetchTrace(t, ts.Client(), ts.URL, trace)
	names := byName(recs)
	jobs := names["bfdnd.explore"]
	if len(jobs) != 1 || jobs[0].Parent != "" {
		t.Fatalf("want one parentless bfdnd.explore root, got %+v", jobs)
	}
	// The facade's simulation span reports to this job via the context chain.
	sims := names["sim.run"]
	if len(sims) != 1 {
		t.Fatalf("sim.run spans = %d, want 1", len(sims))
	}
	if sims[0].Attrs["rounds"] == "" {
		t.Error("sim.run span missing rounds attribute")
	}
}

// TestTracesEndpointWithoutTracer pins the off-by-default contract: no
// -tracebuf means no ring, and the endpoint says so instead of serving an
// empty stream that looks like "no traffic".
func TestTracesEndpointWithoutTracer(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces without tracer: status %d, want 404", resp.StatusCode)
	}

	// And jobs neither break nor advertise a trace they don't have.
	resp2, data := postJSON(t, ts.Client(), ts.URL+"/v1/explore",
		`{"family":"star","n":30,"k":1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d %s", resp2.StatusCode, data)
	}
	if h := resp2.Header.Get("X-Bfdnd-Trace"); h != "" {
		t.Errorf("untraced job advertised X-Bfdnd-Trace %q", h)
	}
}

// TestExemplarsLinkLatencyToTraces checks the metrics↔traces bridge: a traced
// sweep leaves point-duration exemplars whose trace IDs point at traces the
// /debug/traces export actually holds.
func TestExemplarsLinkLatencyToTraces(t *testing.T) {
	srv := New(Config{Tracer: tracing.New(tracing.Config{SampleEvery: 1, Seed: 11})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/sweep",
		`{"seed":2,"points":[{"family":"binary","n":80,"k":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, data)
	}
	trace := resp.Header.Get("X-Bfdnd-Trace")

	er, err := ts.Client().Get(ts.URL + "/debug/exemplars")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	var families map[string][]obs.Exemplar
	if err := json.NewDecoder(er.Body).Decode(&families); err != nil {
		t.Fatal(err)
	}
	exs := families["bfdnd_sweep_point_duration_seconds"]
	if len(exs) == 0 {
		t.Fatal("no exemplars on bfdnd_sweep_point_duration_seconds after a traced sweep")
	}
	for _, ex := range exs {
		if ex.TraceID != trace {
			t.Errorf("exemplar trace %q, want the sweep's trace %q", ex.TraceID, trace)
		}
	}
}
