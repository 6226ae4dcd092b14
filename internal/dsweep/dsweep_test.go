// Package dsweep_test exercises the coordinator against real bfdnd workers:
// httptest fleets built from internal/server, with fault-injecting wrappers
// in front. The load-bearing assertion throughout is byte identity — the
// merged JSONL of a distributed run equals a purely local run of the same
// plan, at any worker count and under every recoverable fault.
package dsweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bfdn"
	"bfdn/internal/dsweep"
	"bfdn/internal/obs/tracing"
	"bfdn/internal/server"
)

// startWorker spins up one bfdnd worker, optionally behind a fault-injecting
// wrapper that receives the request, the real handler, and the 1-based count
// of sweep POSTs seen so far (0 for other endpoints).
func startWorker(t *testing.T, cfg server.Config, wrap func(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64)) string {
	t.Helper()
	srv := server.New(cfg)
	inner := srv.Handler()
	var sweeps atomic.Int64
	h := inner
	if wrap != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var n int64
			if r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
				n = sweeps.Add(1)
			}
			wrap(w, r, inner, n)
		})
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// testPlan builds an error-free plan mixing families, algorithms and robot
// counts, sized so multi-shard runs exercise the merge path.
func testPlan(points int) dsweep.Plan {
	families := []bfdn.Family{bfdn.FamilyPath, bfdn.FamilyBinary, bfdn.FamilySpider, bfdn.FamilyRandom, bfdn.FamilyComb}
	algs := bfdn.Algorithms()
	specs := make([]bfdn.SweepSpec, points)
	for i := range specs {
		specs[i] = bfdn.SweepSpec{
			Family:    families[i%len(families)],
			N:         40 + 17*(i%7),
			TreeSeed:  int64(i / len(families)),
			K:         1 + i%4,
			Algorithm: algs[i%len(algs)],
		}
	}
	return specPlan(0xD15EA5E, specs...)
}

// specPlan marshals specs into a coordinator plan the way
// bfdn.SweepDistributed does.
func specPlan(seed int64, specs ...bfdn.SweepSpec) dsweep.Plan {
	plan := dsweep.Plan{Seed: seed, Points: make([]json.RawMessage, len(specs))}
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			panic(err)
		}
		plan.Points[i] = b
	}
	return plan
}

// localLines runs plan entirely in-process through the bfdn facade — the
// ground truth a distributed run must reproduce byte for byte.
func localLines(t *testing.T, plan dsweep.Plan) []dsweep.Line {
	t.Helper()
	points := make([]bfdn.SweepPoint, len(plan.Points))
	for i, raw := range plan.Points {
		// The wire form names the algorithm, so decode it beside the spec.
		var p struct {
			bfdn.SweepSpec
			Algorithm string `json:"algorithm"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		tr, err := bfdn.GenerateTree(p.Family, p.N, p.Depth, p.TreeSeed)
		if err != nil {
			t.Fatalf("point %d: generate tree: %v", i, err)
		}
		alg, err := bfdn.ParseAlgorithm(p.Algorithm)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		points[i] = bfdn.SweepPoint{Tree: tr, K: p.K, Algorithm: alg, Ell: p.Ell}
	}
	results, _, err := bfdn.SweepContext(context.Background(), points, 4, plan.Seed)
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	lines := make([]dsweep.Line, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("local point %d failed: %v", i, r.Err)
		}
		b, err := json.Marshal(&r.Report)
		if err != nil {
			t.Fatalf("marshal report %d: %v", i, err)
		}
		lines[i] = dsweep.Line{Point: i, Report: b}
	}
	return lines
}

func jsonl(t *testing.T, lines []dsweep.Line) string {
	t.Helper()
	var b bytes.Buffer
	if err := dsweep.WriteJSONL(&b, lines); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requireIdentical asserts the distributed output is byte-identical to the
// local ground truth.
func requireIdentical(t *testing.T, plan dsweep.Plan, got []dsweep.Line) {
	t.Helper()
	want := jsonl(t, localLines(t, plan))
	if g := jsonl(t, got); g != want {
		t.Fatalf("distributed JSONL differs from local run\n got (%d bytes):\n%s\nwant (%d bytes):\n%s",
			len(g), g, len(want), want)
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	// Three healthy workers with different capacities; the one advertising
	// maxJobs 1 gets one shard at a time (TestInflightFollowsMaxJobs).
	workers := []string{
		startWorker(t, server.Config{MaxJobs: 4, SweepWorkers: 2, MaxPoints: 4}, nil),
		startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 1, MaxPoints: 4}, nil),
		startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 3, MaxPoints: 4}, nil),
	}
	plan := testPlan(37)

	var streamed []int
	lines, stats, err := dsweep.Run(context.Background(), plan, workers, dsweep.Options{
		OnLine: func(l dsweep.Line) { streamed = append(streamed, l.Point) },
	})
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)

	if stats.Points != 37 || stats.Workers != 3 {
		t.Errorf("stats = %+v, want 37 points over 3 workers", stats)
	}
	if stats.Shards < 10 {
		t.Errorf("%d shards for 37 points with maxPoints 4, want ≥ 10", stats.Shards)
	}
	total := 0
	for _, n := range stats.ShardsByWorker {
		total += n
	}
	if total != stats.Shards {
		t.Errorf("ShardsByWorker sums to %d, want %d", total, stats.Shards)
	}
	for i, p := range streamed {
		if p != i {
			t.Fatalf("OnLine emitted point %d at position %d — stream out of order", p, i)
		}
	}
	if len(streamed) != 37 {
		t.Errorf("OnLine saw %d lines, want 37", len(streamed))
	}
}

// inflight counts the sweep requests one worker is serving at once.
type inflight struct {
	mu        sync.Mutex
	cur, peak int
}

// wrap is a startWorker fault injector that injects no fault: it holds
// each sweep for a few milliseconds, so that concurrent dispatches
// overlap, and records the peak count.
func (f *inflight) wrap(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64) {
	if sweepN > 0 {
		f.mu.Lock()
		f.cur++
		f.peak = max(f.peak, f.cur)
		f.mu.Unlock()
		defer func() {
			f.mu.Lock()
			f.cur--
			f.mu.Unlock()
		}()
		time.Sleep(5 * time.Millisecond)
	}
	inner.ServeHTTP(w, r)
}

func TestInflightFollowsMaxJobs(t *testing.T) {
	// The coordinator keeps at most min(2, maxJobs) shards in flight on a
	// worker: one on the worker that advertises maxJobs 1, and two on the
	// one that advertises 4.
	var one, four inflight
	workers := []string{
		startWorker(t, server.Config{MaxJobs: 1, MaxPoints: 2}, one.wrap),
		startWorker(t, server.Config{MaxJobs: 4, MaxPoints: 2}, four.wrap),
	}
	plan := testPlan(24)

	lines, stats, err := dsweep.Run(context.Background(), plan, workers, dsweep.Options{})
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)
	if one.peak > 1 {
		t.Errorf("%d shards in flight on the maxJobs 1 worker, want at most 1", one.peak)
	}
	if four.peak > 2 {
		t.Errorf("%d shards in flight on the maxJobs 4 worker, want at most 2", four.peak)
	}
}

func TestSingleWorkerMatchesLocal(t *testing.T) {
	// The degenerate fleet: one worker, one shard. This pins down the
	// baseline identity the fault tests rely on.
	workers := []string{startWorker(t, server.Config{MaxJobs: 2}, nil)}
	plan := testPlan(9)
	lines, _, err := dsweep.Run(context.Background(), plan, workers, dsweep.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireIdentical(t, plan, lines)
}

func TestWorkerDiesMidStreamFailsOver(t *testing.T) {
	// Worker B truncates the JSONL stream of its first sweep mid-line, then
	// answers every later request with 500: two consecutive failures, so the
	// coordinator must declare it dead and fail its shards over to A.
	healthy := startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 2, MaxPoints: 2}, nil)
	flaky := startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 2, MaxPoints: 2},
		func(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64) {
			switch {
			case sweepN == 1:
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, `{"point":0,"repor`) // half a line, no done record
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				panic(http.ErrAbortHandler)
			case sweepN > 1:
				http.Error(w, "injected crash", http.StatusInternalServerError)
			default:
				inner.ServeHTTP(w, r)
			}
		})
	plan := testPlan(40)

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{healthy, flaky},
		dsweep.FastFaults(dsweep.Options{}))
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)

	if stats.DeadWorkers != 1 {
		t.Errorf("DeadWorkers = %d, want 1", stats.DeadWorkers)
	}
	if stats.Failovers < 1 {
		t.Errorf("Failovers = %d, want ≥ 1 (the truncated shard must complete elsewhere)", stats.Failovers)
	}
	if stats.Retries < 2 {
		t.Errorf("Retries = %d, want ≥ 2", stats.Retries)
	}
	if n := stats.ShardsByWorker[flaky]; n != 0 {
		t.Errorf("dead worker completed %d shards, want 0", n)
	}
}

func TestBusyWorkerRecovers(t *testing.T) {
	// The only worker answers its first two sweeps with 429 (queue full),
	// then recovers. Busy responses must be retried with backoff — never
	// blamed on the worker — and the result must still be exact.
	var rejected atomic.Int64
	url := startWorker(t, server.Config{MaxJobs: 1, MaxPoints: 4},
		func(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64) {
			if sweepN >= 1 && sweepN <= 2 {
				rejected.Add(1)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				fmt.Fprint(w, `{"error":"job queue full, retry later"}`)
				return
			}
			inner.ServeHTTP(w, r)
		})
	plan := testPlan(12)

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{url},
		dsweep.FastFaults(dsweep.Options{}))
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)
	if rejected.Load() != 2 {
		t.Fatalf("fault injector fired %d times, want 2", rejected.Load())
	}
	if stats.Retries < 2 {
		t.Errorf("Retries = %d, want ≥ 2", stats.Retries)
	}
	if stats.DeadWorkers != 0 {
		t.Errorf("DeadWorkers = %d — busy responses must not kill a worker", stats.DeadWorkers)
	}
}

func TestUnreachableWorkerFailsOver(t *testing.T) {
	// One worker address refuses connections outright (server brought up and
	// torn down to reserve a dead port). The probe keeps it with conservative
	// defaults; dispatch fails fast; the live worker absorbs the plan.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	live := startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 2, MaxPoints: 4}, nil)
	plan := testPlan(16)

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{deadURL, live},
		dsweep.FastFaults(dsweep.Options{}))
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)
	if stats.DeadWorkers != 1 {
		t.Errorf("DeadWorkers = %d, want 1", stats.DeadWorkers)
	}
	if n := stats.ShardsByWorker[deadURL]; n != 0 {
		t.Errorf("unreachable worker credited with %d shards", n)
	}
	if n := stats.ShardsByWorker[live]; n != stats.Shards {
		t.Errorf("live worker completed %d/%d shards", n, stats.Shards)
	}
}

func TestMalformedStreamRetries(t *testing.T) {
	// A 200 response whose body is not JSONL at all must be treated as a
	// failed attempt (never merged), and the retry must repair the run.
	url := startWorker(t, server.Config{MaxJobs: 1},
		func(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64) {
			if sweepN == 1 {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				fmt.Fprintln(w, "this is not json")
				return
			}
			inner.ServeHTTP(w, r)
		})
	plan := testPlan(6)

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{url},
		dsweep.FastFaults(dsweep.Options{}))
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)
	if stats.Retries < 1 {
		t.Errorf("Retries = %d, want ≥ 1", stats.Retries)
	}
}

func TestHedgeCompletesStraggler(t *testing.T) {
	// Worker B swallows its first shard forever (the handler blocks until
	// the request is canceled). With hedging on, the idle worker A duplicates
	// the straggler once the queue drains; the winning copy cancels B's.
	healthy := startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 2, MaxPoints: 2}, nil)
	release := make(chan struct{})
	stuck := startWorker(t, server.Config{MaxJobs: 1, SweepWorkers: 2, MaxPoints: 2},
		func(w http.ResponseWriter, r *http.Request, inner http.Handler, sweepN int64) {
			if sweepN == 1 {
				// Drain the body first: the server only watches for a client
				// abort — which is what cancels r.Context() — once the request
				// has been fully read.
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done(): // hold the shard hostage until canceled
				case <-release:
				}
				return
			}
			inner.ServeHTTP(w, r)
		})
	t.Cleanup(func() { close(release) })
	plan := testPlan(8)

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{healthy, stuck},
		dsweep.FastFaults(dsweep.Options{Hedge: true}))
	if err != nil {
		t.Fatalf("Run: %v (stats: %s)", err, stats)
	}
	requireIdentical(t, plan, lines)
	if stats.Hedges < 1 {
		t.Errorf("Hedges = %d, want ≥ 1 — the stuck shard can only finish via a hedge", stats.Hedges)
	}
	if stats.DeadWorkers != 0 {
		t.Errorf("DeadWorkers = %d — a canceled hedge loser is not a failure", stats.DeadWorkers)
	}
}

func TestCancellationAbortsRun(t *testing.T) {
	// Cancel after the fifth merged line. The run must stop promptly with
	// ctx's error, and the partial output must be an exact prefix of the
	// local ground truth — never a hole, never a reordered tail.
	url := startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 2, MaxPoints: 2}, nil)
	plan := testPlan(120)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	lines, _, err := dsweep.Run(ctx, plan, []string{url}, dsweep.Options{
		OnLine: func(dsweep.Line) {
			if seen++; seen == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if len(lines) < 5 || len(lines) >= 120 {
		t.Fatalf("canceled run merged %d lines, want a strict prefix of ≥ 5", len(lines))
	}
	want := localLines(t, plan)
	if got, exp := jsonl(t, lines), jsonl(t, want[:len(lines)]); got != exp {
		t.Fatalf("canceled run's partial output is not a prefix of the local run\n got:\n%s\nwant:\n%s", got, exp)
	}
}

// TestCancelAfterLastShardAbortsRun is the deterministic form of the race
// TestCancellationAbortsRun can hit: every shard completes before shard 0
// is merged, so the cancel lands while the merger emits the whole plan in
// one delivery. Every shard is one point, and the worker holds shard 0
// back until the coordinator has buffered every other shard: the
// coordinator records a dsweep.merge span for each shard right after the
// merger takes it. The run must still stop emitting at the cancel and
// return the context's error with a strict prefix.
func TestCancelAfterLastShardAbortsRun(t *testing.T) {
	const points = 6
	tracer := tracing.New(tracing.Config{Seed: 7})
	merged := func() int {
		n := 0
		for _, sp := range tracer.Spans(tracing.TraceID{}) {
			if sp.Name == "dsweep.merge" {
				n++
			}
		}
		return n
	}
	url := startWorker(t, server.Config{MaxJobs: 2, SweepWorkers: 1, MaxPoints: 1},
		func(w http.ResponseWriter, r *http.Request, inner http.Handler, _ int64) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			if bytes.Contains(body, []byte(`"indexBase":0,`)) {
				for merged() < points-1 {
					if r.Context().Err() != nil {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			inner.ServeHTTP(w, r)
		})
	plan := testPlan(points)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	lines, _, err := dsweep.Run(ctx, plan, []string{url}, dsweep.Options{
		Tracer: tracer,
		OnLine: func(dsweep.Line) {
			if seen++; seen == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if seen != 1 || len(lines) != 1 {
		t.Fatalf("OnLine saw %d lines and Run returned %d, want 1 each: nothing is emitted after the cancel", seen, len(lines))
	}
	if got, exp := jsonl(t, lines), jsonl(t, localLines(t, plan)[:1]); got != exp {
		t.Fatalf("canceled run's partial output is not a prefix of the local run\n got:\n%s\nwant:\n%s", got, exp)
	}
}

func TestInvalidPlanIsFatal(t *testing.T) {
	// k = 0 is rejected by the worker with 400: a configuration error no
	// retry can fix, so the run must fail without burning the retry budget.
	url := startWorker(t, server.Config{MaxJobs: 2}, nil)
	plan := specPlan(1, bfdn.SweepSpec{Family: bfdn.FamilyPath, N: 10, K: 0, Algorithm: bfdn.BFDN})
	_, stats, err := dsweep.Run(context.Background(), plan, []string{url}, dsweep.Options{})
	if err == nil {
		t.Fatal("Run succeeded on an invalid plan")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Errorf("error %q does not mention the worker rejection", err)
	}
	if stats.Retries != 0 {
		t.Errorf("Retries = %d, want 0 — a 400 must not be retried", stats.Retries)
	}
}

func TestAllWorkersUnreachableFails(t *testing.T) {
	a := httptest.NewServer(http.NotFoundHandler())
	aURL := a.URL
	a.Close()
	plan := testPlan(4)
	_, _, err := dsweep.Run(context.Background(), plan, []string{aURL},
		dsweep.FastFaults(dsweep.Options{}))
	if err == nil {
		t.Fatal("Run succeeded with no reachable worker")
	}
}

func TestDrainingWorkersAreSkipped(t *testing.T) {
	// A draining worker advertises draining=true on /capacity and must be
	// left out of the fleet at startup; with a healthy sibling the run still
	// completes exactly.
	drainingSrv := server.New(server.Config{MaxJobs: 2})
	if err := drainingSrv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(drainingSrv.Handler())
	t.Cleanup(ts.Close)
	live := startWorker(t, server.Config{MaxJobs: 2}, nil)
	plan := testPlan(6)

	lines, stats, err := dsweep.Run(context.Background(), plan, []string{ts.URL, live}, dsweep.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireIdentical(t, plan, lines)
	if stats.Workers != 1 {
		t.Errorf("Workers = %d, want 1 (the draining worker must be skipped)", stats.Workers)
	}

	// A fleet that is nothing but draining workers is an immediate error.
	if _, _, err := dsweep.Run(context.Background(), plan, []string{ts.URL}, dsweep.Options{}); err == nil {
		t.Error("Run succeeded against an all-draining fleet")
	}
}

func TestRunEdgeCases(t *testing.T) {
	if _, _, err := dsweep.Run(context.Background(), testPlan(2), nil, dsweep.Options{}); err == nil {
		t.Error("Run succeeded with no workers")
	}
	lines, stats, err := dsweep.Run(context.Background(), dsweep.Plan{}, []string{"http://unused"}, dsweep.Options{})
	if err != nil || len(lines) != 0 || stats.Points != 0 {
		t.Errorf("empty plan: lines=%d stats=%+v err=%v, want a clean no-op", len(lines), stats, err)
	}
}
