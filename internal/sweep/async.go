package sweep

import (
	"context"
	"errors"
	"fmt"

	"bfdn/internal/async"
	"bfdn/internal/tree"
)

// AsyncPoint is one independent continuous-time run of an asynchronous
// sweep grid: (algorithm, tree, fleet, latency) with the point's event
// stream seeded from the sweep's base seed and index exactly like
// synchronous points — the same splitmix64/IndexBase scheme, so asynchronous
// sweeps are byte-identical at any worker count and under any sharding.
type AsyncPoint struct {
	// Tree is the hidden exploration target; immutable, so one *tree.Tree
	// may back any number of points.
	Tree *tree.Tree
	// Speeds is the fleet: speeds[i] > 0 is robot i's edge-traversal rate.
	Speeds []float64
	// Algorithm names the decision strategy (async.NewNamedAlgorithm):
	// "bfdn" or "potential".
	Algorithm string
	// Latency is the traversal-time model spec (async.ParseLatency):
	// "constant" (or empty), "jitter:F", "pareto:A".
	Latency string
	// MaxEvents caps the event loop; ≤ 0 selects the engine's generous
	// default.
	MaxEvents int64
}

// AsyncResult is the outcome of one asynchronous point.
type AsyncResult struct {
	// Point is the index into the input slice.
	Point int
	// Seed is the derived per-point seed (DeriveSeed of base and index); the
	// engine's latency stream is seeded with it.
	Seed uint64
	async.Result
	// Err is non-nil when the point could not run; the other points are
	// unaffected.
	Err error
}

// Settled reports the point's index and error.
func (r AsyncResult) Settled() (int, error) { return r.Point, r.Err }

// RunAsyncContext executes all asynchronous points on a worker pool and
// returns one AsyncResult per point, in point order. Failures are
// per-point; RunAsyncContext itself never fails. Each worker recycles one
// async.Engine and one algorithm instance per algorithm name across the
// points it executes (Engine.Reset / Algorithm.Reset), the asynchronous
// face of the engine's world-reuse contract. Wire an async sweep's Recorder
// with NewNamedRecorder to keep its metric families apart from the
// synchronous ones.
//
// Cancellation is cooperative: the context is checked before each point
// starts and every 128 events inside a running one
// (async.Engine.RunContext). Points finished before cancellation keep their
// results; every other point carries the context's error in Err. onResult
// follows the RunContext contract.
func RunAsyncContext(ctx context.Context, points []AsyncPoint, opt Options, onResult func(AsyncResult)) ([]AsyncResult, Stats) {
	return run(ctx, points, opt, onResult, runAsyncPoint, failAsyncPoint)
}

// asyncWorker is what one asynchronous worker recycles across its points:
// the engine (nil before the first point) and its algorithm instances by
// name, so grids that interleave algorithms still reuse both.
type asyncWorker struct {
	engine *async.Engine
	algs   map[string]async.Algorithm
}

// failAsyncPoint settles an asynchronous point that could not run.
func failAsyncPoint(i int, seed uint64, err error) AsyncResult {
	return AsyncResult{Point: i, Seed: seed, Err: fmt.Errorf("sweep: async point %d: %w", i, err)}
}

// runAsyncPoint executes one point on the worker's recycled engine.
func runAsyncPoint(ctx context.Context, ws *asyncWorker, p AsyncPoint, index int, seed uint64) AsyncResult {
	if p.Tree == nil {
		return failAsyncPoint(index, seed, errors.New("nil tree"))
	}
	alg := ws.algs[p.Algorithm]
	if alg == nil {
		a, err := async.NewNamedAlgorithm(p.Algorithm)
		if err != nil {
			return failAsyncPoint(index, seed, err)
		}
		alg = a
		if ws.algs == nil {
			ws.algs = make(map[string]async.Algorithm)
		}
		ws.algs[p.Algorithm] = alg
	}
	lat, err := async.ParseLatency(p.Latency)
	if err != nil {
		return failAsyncPoint(index, seed, err)
	}
	e := ws.engine
	if e == nil {
		ne, err := async.NewEngine(p.Tree, p.Speeds,
			async.WithAlgorithm(alg), async.WithLatency(lat), async.WithSeed(int64(seed)))
		if err != nil {
			return failAsyncPoint(index, seed, err)
		}
		e = ne
		ws.engine = e
	} else {
		e.Rebind(alg, lat)
		if err := e.Reset(p.Tree, p.Speeds, int64(seed)); err != nil {
			return failAsyncPoint(index, seed, err)
		}
	}
	r, err := e.RunContext(ctx, p.MaxEvents)
	if err != nil {
		return failAsyncPoint(index, seed, err)
	}
	return AsyncResult{Point: index, Seed: seed, Result: r}
}
