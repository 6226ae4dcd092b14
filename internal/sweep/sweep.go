// Package sweep is the parallel execution engine behind every large
// experiment grid (DESIGN.md S23): a sweep is a list of independent points
// (algorithm × tree × k × seed) that are sharded across a worker pool and
// executed with per-worker world reuse (sim.World.Reset), so steady-state
// points allocate almost nothing beyond what the algorithm itself needs.
// It implements no part of the paper directly; it is the reproduction
// infrastructure that drives the grids checking Theorem 1 and Figure 1
// (experiments E1, E10, E14 and A1), the bfdnd sweep endpoint, and — one
// level up — the distributed coordinator in internal/dsweep.
//
// Determinism is a hard contract: per-point randomness is derived from the
// sweep's base seed and the point's index alone (DeriveSeed, a splitmix64
// finalizer), and results are written to the slot matching the point's
// index, so the output is byte-identical at any worker count and under any
// scheduling of the pool.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bfdn/internal/obs/tracing"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Point is one independent simulation run of a sweep grid.
type Point struct {
	// Tree is the hidden exploration target. Trees are immutable, so one
	// *tree.Tree may back any number of points.
	Tree *tree.Tree
	// K is the number of robots.
	K int
	// NewAlgorithm constructs the point's algorithm. It is called once per
	// execution of the point, on the worker goroutine; rng is seeded from
	// DeriveSeed(baseSeed, index), so randomized algorithms stay
	// deterministic regardless of worker count or execution order. The
	// factory must not share mutable state across points.
	NewAlgorithm func(k int, rng *rand.Rand) sim.Algorithm
	// Name names the point's algorithm configuration. When it is not
	// empty and equals the Name of the worker's previous point, the worker
	// resets that point's instance in place through its Reset(k int)
	// method, the way worlds are recycled via sim.World.Reset, instead of
	// calling NewAlgorithm. Points sharing a Name must build identically
	// configured instances, and Reset must leave an instance byte-identical
	// to fresh construction: the engine's determinism contract extends to
	// reused algorithms.
	Name string
	// MaxRounds caps the run; ≤ 0 selects the paper's termination cap
	// (see sim.Run).
	MaxRounds int64
}

// Result is the outcome of one point.
type Result struct {
	// Point is the index into the input slice.
	Point int
	// Seed is the derived per-point seed (DeriveSeed of base and index).
	Seed uint64
	sim.Result
	// Err is non-nil when the point could not run or the simulator
	// rejected a move; the other points are unaffected.
	Err error
}

// Settled is how code shared by both engines reads a point's result: its
// index in the sweep's input and its error. Result and AsyncResult
// implement it.
type Settled interface {
	Settled() (point int, err error)
}

// Settled reports the point's index and error.
func (r Result) Settled() (int, error) { return r.Point, r.Err }

// Stats summarizes one engine invocation, for observability. All values are
// derived from the run's Recorder after the pool drains, so they agree with
// what Options.Recorder accumulates.
type Stats struct {
	// Points is the number of points executed.
	Points int
	// Workers is the effective worker-pool size.
	Workers int
	// Elapsed is the wall-clock duration of the sweep.
	Elapsed time.Duration
	// PointsPerSec is Points / Elapsed.
	PointsPerSec float64
	// AllocsPerPoint is the mean number of heap allocations per point over
	// the whole process (runtime.MemStats.Mallocs delta; includes algorithm
	// construction and any concurrent activity).
	AllocsPerPoint float64
	// Utilization is the mean worker busy time divided by Elapsed:
	// 1.0 means every worker simulated the whole time.
	Utilization float64
	// Errors counts points that settled with a non-nil Err.
	Errors int
}

// String renders the stats as the one-line form printed by cmd/experiments.
func (s Stats) String() string {
	return fmt.Sprintf("%d points, %d workers, %.0f points/sec, %.0f allocs/point, %.0f%% utilization",
		s.Points, s.Workers, s.PointsPerSec, s.AllocsPerPoint, 100*s.Utilization)
}

// Options configure a sweep of either engine (RunContext,
// RunAsyncContext). The zero
// value is valid.
type Options struct {
	// Workers is the worker-pool size; ≤ 0 selects GOMAXPROCS.
	Workers int
	// BaseSeed scrambles every per-point seed (DeriveSeed).
	BaseSeed uint64
	// IndexBase offsets the index fed to DeriveSeed: point i draws its seed
	// from DeriveSeed(BaseSeed, IndexBase+i). A distributed coordinator that
	// splits one logical sweep into shards sets IndexBase to each shard's
	// first global index, so every point's randomness — and therefore its
	// result — is identical to the unsharded run regardless of placement.
	IndexBase uint64
	// SeedIndices, when non-nil, overrides the seed-derivation index per
	// point: point i draws from DeriveSeed(BaseSeed, SeedIndices[i]) instead
	// of IndexBase+i. A resuming caller (DESIGN.md S30) that re-runs only
	// the missing points of a journaled sweep passes each survivor's
	// original global index here, so its randomness — and result — is
	// byte-identical to the uninterrupted run. len(SeedIndices) must equal
	// the number of points.
	SeedIndices []uint64
	// Recorder, when non-nil, receives the run's signals after the pool
	// drains: per-point duration and queue-wait observations, point/error
	// totals and worker busy time are merged in atomically, so one Recorder
	// shared by concurrent sweeps accumulates monotonically consistent
	// totals.
	Recorder *Recorder
}

// seed derives point i's seed from the SeedIndices override when set,
// from IndexBase+i otherwise.
func (o *Options) seed(i int) uint64 {
	if o.SeedIndices != nil {
		return DeriveSeed(o.BaseSeed, o.SeedIndices[i])
	}
	return DeriveSeed(o.BaseSeed, o.IndexBase+uint64(i))
}

// DeriveSeed maps (base, index) to a per-point seed with the splitmix64
// finalizer: neighbouring indices get statistically independent streams and
// the mapping depends only on the two inputs, never on scheduling.
func DeriveSeed(base, index uint64) uint64 {
	z := base ^ (index * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes all points on a pool of opt.Workers goroutines and returns
// one Result per point, in point order. Failures are per-point (Result.Err);
// Run itself never fails. Each worker recycles a single sim.World across the
// points it executes.
func Run(points []Point, opt Options) ([]Result, Stats) {
	return RunContext(context.Background(), points, opt, nil)
}

// workerState is everything one synchronous worker recycles across the
// points it executes: the world (sim.World.Reset), the last point's
// algorithm instance and Name (Point.Name), the rng (reseeded in place —
// an instance reset by name keeps drawing from it — sparing the ~5KB
// rngSource re-allocation every point), and an int64 arena that per-point
// MovesPerRobot report slices are carved from. Results must stay
// independent after the sweep returns, so carved slices are never reused —
// the arena only batches their allocation, turning k-robot grids from one
// make per point into one make per arenaChunk/k points.
type workerState struct {
	world   *sim.World
	alg     sim.Algorithm
	algName string
	rng     *rand.Rand
	arena   []int64
}

// arenaChunk is the minimum arena block, in int64s. 4096 words (32KB) keeps
// blocks comfortably under the large-object threshold while amortizing to
// ~one allocation per 64 points at k=64.
const arenaChunk = 4096

// movesBuf carves a length-k report slice off the worker's arena,
// full-capacity-clipped so appends by the caller can never bleed into the
// next point's slice.
func (ws *workerState) movesBuf(k int) []int64 {
	if len(ws.arena) < k {
		n := arenaChunk
		if k > n {
			n = k
		}
		ws.arena = make([]int64, n)
	}
	buf := ws.arena[:k:k]
	ws.arena = ws.arena[k:]
	return buf
}

// RunContext is Run with cooperative cancellation. The context is checked
// before each point is started and once per simulated round inside a running
// point (sim.RunContext), so after cancellation every worker stops within one
// round. RunContext still returns one Result per point: points that finished
// before the cancellation keep their results, and every other point carries
// the context's error in Result.Err — partial results are never discarded.
//
// onResult, when non-nil, is invoked exactly once per point as soon as its
// Result is final — on the worker goroutine that produced it, in completion
// order (not point order). Canceled points are reported too, with Err set.
// It must be safe for concurrent calls; a slow callback stalls the worker
// that runs it.
func RunContext(ctx context.Context, points []Point, opt Options, onResult func(Result)) ([]Result, Stats) {
	return run(ctx, points, opt, onResult, runPoint, failPoint)
}

// run is the driver both engines share: it shards points over a pool of
// opt.Workers goroutines, each recycling one W across the points it runs,
// and returns one result per point in point order. exec runs point i with
// its derived seed; fail settles a point canceled before it started. The
// run recorder every invocation derives its Stats from is private, so the
// numbers handed to callers and the ones merged into opt.Recorder cannot
// disagree. Busy time accumulates in a goroutine-local variable merged into
// the recorder once at exit, and onResult runs outside the timed section
// so slow consumers stall the worker without inflating PointDuration.
//
// Workers carry pprof goroutine labels (sweep_worker), so CPU profiles
// segment by worker. When ctx carries a span (internal/obs/tracing) each
// worker runs under a sweep.worker child span and points get sampled
// sweep.point spans whose trace is attached to the point-duration
// histogram as an exemplar; without one — the steady-state configuration —
// the per-point cost is a single nil check, no clocks, no allocations.
func run[P any, R Settled, W any](ctx context.Context, points []P, opt Options, onResult func(R),
	exec func(ctx context.Context, ws *W, p P, i int, seed uint64) R,
	fail func(i int, seed uint64, err error) R) ([]R, Stats) {
	n := len(points)
	results := make([]R, n)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	stats := Stats{Points: n, Workers: workers}
	if n == 0 {
		return results, stats
	}
	state := make([]W, workers)
	failed := func(i int) bool {
		_, err := results[i].Settled()
		return err != nil
	}

	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()

	rec := newRunRecorder()
	traced := tracing.FromContext(ctx) != nil
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			wctx := ctx
			var wsp *tracing.ActiveSpan
			executed := 0
			if traced {
				wctx, wsp = tracing.Start(ctx, "sweep.worker", tracing.Int("worker", wk))
			}
			var busyLocal time.Duration
			defer func() {
				rec.BusySeconds.AddDuration(busyLocal)
				if wsp != nil {
					wsp.SetAttr(tracing.Int("points", executed))
					wsp.End()
				}
			}()
			pprof.Do(wctx, pprof.Labels("sweep_worker", strconv.Itoa(wk)), func(wctx context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := ctx.Err(); err != nil {
						results[i] = fail(i, opt.seed(i), err)
						rec.point(time.Since(start), 0, failed(i))
					} else {
						pctx := wctx
						var psp *tracing.ActiveSpan
						if traced {
							pctx, psp = tracing.StartBulk(wctx, "sweep.point", tracing.Int("point", i))
						}
						t0 := time.Now()
						results[i] = exec(pctx, &state[wk], points[i], i, opt.seed(i))
						d := time.Since(t0)
						busyLocal += d
						executed++
						rec.point(t0.Sub(start), d, failed(i))
						if psp != nil {
							psp.End()
							rec.PointDuration.Exemplar(d.Seconds(), psp.Ref().Trace.String())
						}
					}
					if onResult != nil {
						onResult(results[i])
					}
				}
			})
		}(wk)
	}
	wg.Wait()

	stats.Elapsed = time.Since(start)
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	if s := stats.Elapsed.Seconds(); s > 0 {
		stats.PointsPerSec = float64(rec.PointsTotal.Value()) / s
	}
	stats.AllocsPerPoint = float64(mem1.Mallocs-mem0.Mallocs) / float64(n)
	if d := stats.Elapsed.Seconds() * float64(workers); d > 0 {
		stats.Utilization = rec.BusySeconds.Value() / d
	}
	stats.Errors = int(rec.ErrorsTotal.Value())
	if opt.Recorder != nil {
		opt.Recorder.merge(rec)
	}
	return results, stats
}

// failPoint settles a synchronous point that could not run.
func failPoint(i int, seed uint64, err error) Result {
	return Result{Point: i, Seed: seed, Err: fmt.Errorf("sweep: point %d: %w", i, err)}
}

// runPoint executes one point on the worker's recycled state: the world is
// always reused (via Reset), the rng is reseeded in place, the algorithm is
// reset in place when the point has the previous point's Name, and the
// result's MovesPerRobot is carved from the worker's arena
// (sim.RunRecycledContext), so a steady-state point allocates nothing in the
// engine itself.
func runPoint(ctx context.Context, ws *workerState, p Point, index int, seed uint64) Result {
	if p.Tree == nil {
		return failPoint(index, seed, errors.New("nil tree"))
	}
	if p.NewAlgorithm == nil {
		return failPoint(index, seed, errors.New("nil algorithm factory"))
	}
	w := ws.world
	if w == nil {
		nw, err := sim.NewWorld(p.Tree, p.K)
		if err != nil {
			return failPoint(index, seed, err)
		}
		w = nw
		ws.world = w
	} else if err := w.Reset(p.Tree, p.K); err != nil {
		return failPoint(index, seed, err)
	}
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(int64(seed)))
	} else {
		// Reseeding leaves the source in the exact state NewSource(seed)
		// constructs, so recycled and fresh workers draw identical streams.
		ws.rng.Seed(int64(seed))
	}
	alg := ws.alg
	if r, ok := alg.(interface{ Reset(k int) }); ok && p.Name != "" && p.Name == ws.algName {
		r.Reset(p.K)
	} else if alg = p.NewAlgorithm(p.K, ws.rng); alg == nil {
		return failPoint(index, seed, errors.New("algorithm factory returned nil"))
	}
	ws.alg, ws.algName = alg, p.Name
	r, err := sim.RunRecycledContext(ctx, w, alg, p.MaxRounds, ws.movesBuf(w.K()))
	if err != nil {
		return failPoint(index, seed, err)
	}
	return Result{Point: index, Seed: seed, Result: r}
}

// JoinErrors collects every per-point error of a sweep of either engine
// into one error (errors.Join), or nil when all points succeeded.
func JoinErrors[R Settled](results []R) error {
	var errs []error
	for _, r := range results {
		if _, err := r.Settled(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
