package bfdn

// This file is the facade over internal/async, the continuous-time engine
// (Remark 8 of the paper; the asynchronous CTE model of arXiv:2507.15658):
// single explorations via ExploreAsync/ExploreAsyncContext and deterministic
// (algorithm × tree × fleet × latency) grids via SweepAsyncContext and
// SweepAsyncStream, mirroring the synchronous Explore/SweepContext surface.

import (
	"context"
	"fmt"
	"strings"

	"bfdn/internal/async"
	"bfdn/internal/sweep"
)

// AsyncAlgorithm selects the decision strategy for continuous-time runs.
type AsyncAlgorithm int

// The continuous-time algorithms.
const (
	// AsyncBFDN is Breadth-First Depth-Next on arrival-instant decisions:
	// robots anchor at the least-loaded open node of minimal depth and run
	// depth-next below it, with persistent dangling-edge claims.
	AsyncBFDN AsyncAlgorithm = iota + 1
	// AsyncPotential is the Potential Function Method's DFS-slot rule
	// (arXiv:2311.01354) ported to arrival instants: robot i chases slot
	// ⌊i·m/k⌋ of the m unclaimed dangling edges in DFS preorder.
	AsyncPotential
)

// AsyncAlgorithms lists every selectable continuous-time algorithm.
func AsyncAlgorithms() []AsyncAlgorithm { return []AsyncAlgorithm{AsyncBFDN, AsyncPotential} }

// AsyncAlgorithmNames lists the canonical names in AsyncAlgorithms() order —
// the single source for user-facing lists in CLIs and API errors.
func AsyncAlgorithmNames() []string {
	algs := AsyncAlgorithms()
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.String()
	}
	return names
}

// String returns the canonical lower-case name used by the CLIs and the
// bfdnd HTTP API.
func (a AsyncAlgorithm) String() string {
	switch a {
	case AsyncBFDN:
		return "bfdn"
	case AsyncPotential:
		return "potential"
	}
	return fmt.Sprintf("AsyncAlgorithm(%d)", int(a))
}

// ParseAsyncAlgorithm is the inverse of AsyncAlgorithm.String; the empty
// string selects AsyncBFDN (matching the zero AsyncSweepPoint.Algorithm).
func ParseAsyncAlgorithm(name string) (AsyncAlgorithm, error) {
	if name == "" {
		return AsyncBFDN, nil
	}
	for _, a := range AsyncAlgorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("bfdn: unknown async algorithm %q (valid: %s)",
		name, strings.Join(AsyncAlgorithmNames(), ", "))
}

type asyncConfig struct {
	alg     AsyncAlgorithm
	latency string
	seed    int64
}

// defaultAsyncConfig is the single source of ExploreAsync's defaults:
// asynchronous BFDN under constant latency, seed 1 (which constant-latency
// runs ignore — they draw no randomness).
func defaultAsyncConfig() asyncConfig {
	return asyncConfig{alg: AsyncBFDN, latency: "constant", seed: 1}
}

// AsyncOption configures ExploreAsync.
type AsyncOption func(*asyncConfig)

// WithAsyncAlgorithm selects the strategy (default AsyncBFDN).
func WithAsyncAlgorithm(a AsyncAlgorithm) AsyncOption { return func(c *asyncConfig) { c.alg = a } }

// WithLatencyModel selects the traversal-time model by spec: "constant"
// (default), "jitter:F" stretches every traversal by a uniform factor from
// [1, 1+F], "pareto:A" draws Pareto(shape A) heavy-tail factors. Models
// only delay — a traversal never beats the nominal 1/speed — so the Floor
// of the report stays a valid lower bound under every model.
func WithLatencyModel(spec string) AsyncOption { return func(c *asyncConfig) { c.latency = spec } }

// WithAsyncSeed seeds the latency stream (default 1): same tree, fleet,
// algorithm, latency model, and seed ⇒ identical run, event for event.
func WithAsyncSeed(seed int64) AsyncOption { return func(c *asyncConfig) { c.seed = seed } }

// AsyncReport summarizes a continuous-time exploration run (Remark 8).
type AsyncReport struct {
	// Makespan is the instant the last robot returns to the root.
	Makespan float64 `json:"makespan"`
	// WorkDist[i] counts the edges robot i traversed.
	WorkDist []float64 `json:"workDist"`
	// Events is the number of scheduler events the run processed.
	Events int64 `json:"events"`
	// Floor is the continuous-time offline bound max{2(n−1)/Σsᵢ, 2D/max sᵢ};
	// latency models only delay, so it holds under every model.
	Floor         float64 `json:"floor"`
	FullyExplored bool    `json:"fullyExplored"`
	AllAtRoot     bool    `json:"allAtRoot"`
}

// ExploreAsync runs the continuous-time relaxation of the model suggested
// by Remark 8: robots with heterogeneous speeds (speeds[i] edges per time
// unit), event-driven decisions, persistent dangling-edge claims, and —
// via options — pluggable strategies and per-traversal latency models.
func ExploreAsync(t *Tree, speeds []float64, opts ...AsyncOption) (*AsyncReport, error) {
	return ExploreAsyncContext(context.Background(), t, speeds, opts...)
}

// ExploreAsyncContext is ExploreAsync with cooperative cancellation: the
// event loop checks ctx every 128 events, so the run is abandoned promptly
// after ctx expires, returning the context's error.
func ExploreAsyncContext(ctx context.Context, t *Tree, speeds []float64, opts ...AsyncOption) (*AsyncReport, error) {
	cfg := defaultAsyncConfig()
	for _, o := range opts {
		o(&cfg)
	}
	alg, err := async.NewNamedAlgorithm(cfg.alg.String())
	if err != nil {
		return nil, err
	}
	lat, err := async.ParseLatency(cfg.latency)
	if err != nil {
		return nil, err
	}
	e, err := async.NewEngine(t.t, speeds,
		async.WithAlgorithm(alg), async.WithLatency(lat), async.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	res, err := e.RunContext(ctx, 0)
	if err != nil {
		return nil, err
	}
	rep := newAsyncReport(t, speeds, res)
	return &rep, nil
}

// newAsyncReport is the one constructor of an AsyncReport: the run's
// outcome plus the continuous-time floor for t and the fleet.
func newAsyncReport(t *Tree, speeds []float64, res async.Result) AsyncReport {
	return AsyncReport{
		Makespan:      res.Makespan,
		WorkDist:      res.WorkDist,
		Events:        res.Events,
		Floor:         async.LowerBound(t.N(), t.Depth(), speeds),
		FullyExplored: res.FullyExplored,
		AllAtRoot:     res.AllAtRoot,
	}
}

// AsyncSweepPoint is one run of an asynchronous sweep grid: the algorithm on
// Tree with the given fleet under the named latency model. The zero
// Algorithm selects AsyncBFDN; the empty Latency selects "constant".
type AsyncSweepPoint struct {
	Tree      *Tree
	Speeds    []float64
	Algorithm AsyncAlgorithm
	Latency   string
}

// AsyncSweepResult is the outcome of one asynchronous sweep point. Other
// points are unaffected by a failure.
type AsyncSweepResult struct {
	Report AsyncReport `json:"report"`
	Err    error       `json:"-"`
}

// SweepAsyncContext executes a grid of independent continuous-time runs on
// a sharded worker pool with per-worker engine reuse. workers ≤ 0 selects
// GOMAXPROCS; seed scrambles the deterministic per-point latency streams.
// Results arrive in point order and are byte-identical at any worker count.
// Per-point failures land in AsyncSweepResult.Err; SweepAsyncContext itself
// errors only on points invalid before running (nil tree, unknown algorithm
// or latency spec). After ctx expires every worker stops within 128
// simulated events: points completed before the cancellation keep their
// results, and every other point carries the context's error.
func SweepAsyncContext(ctx context.Context, points []AsyncSweepPoint, workers int, seed int64, engineOpts ...EngineOption) ([]AsyncSweepResult, SweepStats, error) {
	return collect(SweepAsyncStream, ctx, points, workers, seed, engineOpts)
}

// SweepAsyncStream is SweepAsyncContext for consumers that want results as
// they are produced (the bfdnd daemon streams them as JSONL): onResult is
// invoked exactly once per point as soon as it settles — on the worker
// goroutine that ran it, in completion order, not point order — so it must
// be safe for concurrent calls. Canceled points are reported too, with Err
// set.
func SweepAsyncStream(ctx context.Context, points []AsyncSweepPoint, workers int, seed int64, onResult func(index int, res AsyncSweepResult), engineOpts ...EngineOption) (SweepStats, error) {
	pts := make([]sweep.AsyncPoint, len(points))
	for i, p := range points {
		if p.Tree == nil {
			return SweepStats{}, fmt.Errorf("bfdn: async sweep point %d: nil tree", i)
		}
		alg := p.Algorithm
		if alg == 0 {
			alg = AsyncBFDN
		}
		if _, err := ParseAsyncAlgorithm(alg.String()); err != nil {
			return SweepStats{}, fmt.Errorf("bfdn: async sweep point %d: %w", i, err)
		}
		if _, err := async.ParseLatency(p.Latency); err != nil {
			return SweepStats{}, fmt.Errorf("bfdn: async sweep point %d: %w", i, err)
		}
		pts[i] = sweep.AsyncPoint{
			Tree:      p.Tree.t,
			Speeds:    p.Speeds,
			Algorithm: alg.String(),
			Latency:   p.Latency,
		}
	}
	e := sweepEngine[sweep.AsyncPoint, sweep.AsyncResult, AsyncReport]{
		kind:   "asyncsweep",
		plan:   func(base, indexBase uint64) []byte { return asyncSweepPlanBytes(points, base, indexBase) },
		points: pts,
		run:    sweep.RunAsyncContext,
		report: func(i int, r sweep.AsyncResult) AsyncReport {
			return newAsyncReport(points[i].Tree, points[i].Speeds, r.Result)
		},
	}
	return e.stream(ctx, workers, seed, engineOpts, func(i int, rep AsyncReport, err error) {
		if onResult != nil {
			onResult(i, AsyncSweepResult{Report: rep, Err: err})
		}
	})
}

// AsyncLowerBound evaluates the continuous-time offline floor
// max{2(n−1)/Σsᵢ, 2D/max sᵢ}.
func AsyncLowerBound(n, depth int, speeds []float64) float64 {
	return async.LowerBound(n, depth, speeds)
}
