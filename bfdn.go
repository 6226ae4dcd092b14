// Package bfdn is the public API of the Breadth-First Depth-Next
// reproduction (Cosson, Massoulié, Viennot, PODC 2023): collaborative
// exploration of unknown trees and graphs by k robots with the 2n/k +
// O(D²·log k) competitive-overhead guarantee of the paper, together with
// the baselines and extensions the paper discusses.
//
// The typical flow is three lines: build or generate a tree, call Explore,
// read the Report:
//
//	t, _ := bfdn.GenerateTree(bfdn.FamilyRandom, 10_000, 30, 42)
//	rep, _ := bfdn.Explore(t, 16)
//	fmt.Println(rep.Rounds, "of", rep.Bound)
//
// Beyond the headline algorithm the package exposes the CTE baseline, the
// recursive BFDN_ℓ family (§5), the write-read distributed model (§4.1),
// adversarial robot break-downs (§4.2), grid-graph exploration (§4.3), the
// balls-in-urns game and its worker-allocation interpretation (§3), and the
// Figure 1 region map.
package bfdn

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bfdn/internal/adversary"
	"bfdn/internal/bounds"
	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/graph"
	"bfdn/internal/jobstore"
	"bfdn/internal/levelwise"
	"bfdn/internal/obs/tracing"
	"bfdn/internal/offline"
	"bfdn/internal/potential"
	"bfdn/internal/recursive"
	"bfdn/internal/sim"
	"bfdn/internal/sweep"
	"bfdn/internal/trace"
	"bfdn/internal/tree"
	"bfdn/internal/treemining"
	"bfdn/internal/urns"
	"bfdn/internal/writeread"
)

// Tree is an immutable rooted tree, the exploration target. Robots start at
// its root; the tree is hidden from the algorithm and revealed edge by edge.
type Tree struct {
	t *tree.Tree
}

// Family names a tree-generator family.
type Family = tree.Family

// The available tree families.
const (
	FamilyPath        = tree.FamilyPath
	FamilyStar        = tree.FamilyStar
	FamilyBinary      = tree.FamilyBinary
	FamilyTernary     = tree.FamilyTernary
	FamilySpider      = tree.FamilySpider
	FamilyComb        = tree.FamilyComb
	FamilyCaterpillar = tree.FamilyCaterpillar
	FamilyBroom       = tree.FamilyBroom
	FamilyRandom      = tree.FamilyRandom
	FamilyRandomBin   = tree.FamilyRandomBin
	FamilyUneven      = tree.FamilyUneven
)

// Families lists all generator families.
func Families() []Family { return tree.Families() }

// NewTree builds a tree from a parent array: parents[0] must be -1 (the
// root), and parents[v] < v for all other nodes.
func NewTree(parents []int32) (*Tree, error) {
	t, err := tree.FromParents(parents)
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// GenerateTree builds a member of the named family with about n nodes and
// target depth d; seed drives the random families.
func GenerateTree(f Family, n, d int, seed int64) (*Tree, error) {
	t, err := tree.Generate(f, n, d, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &Tree{t: t}, nil
}

// N reports the number of nodes.
func (t *Tree) N() int { return t.t.N() }

// Depth reports D, the maximum root distance.
func (t *Tree) Depth() int { return t.t.Depth() }

// MaxDegree reports Δ.
func (t *Tree) MaxDegree() int { return t.t.MaxDegree() }

// String summarizes the tree.
func (t *Tree) String() string { return t.t.String() }

// Algorithm selects the exploration algorithm for Explore.
type Algorithm int

// The exploration algorithms.
const (
	// BFDN is the paper's Breadth-First Depth-Next (Algorithm 1).
	BFDN Algorithm = iota + 1
	// BFDNRecursive is BFDN_ℓ (§5); set Ell via WithEll (default 2).
	BFDNRecursive
	// CTE is the Collective Tree Exploration baseline of Fraigniaud et al.
	CTE
	// DFS is single-robot online depth-first search (robots beyond the
	// first stay at the root).
	DFS
	// Levelwise is the phase-synchronized algorithm of the paper's open-
	// directions discussion ([13]): O(D²) rounds once k ≥ n/D.
	Levelwise
	// TreeMining is the proportional-split algorithm of Cosson
	// (arXiv:2309.07011), the first to break the k/log k competitive
	// barrier: (n/k + D)·2^{O(√log k)}.
	TreeMining
	// Potential is the Potential Function Method of Cosson–Massoulié
	// (arXiv:2311.01354): an even DFS-order split with a 2n/k + O(D²)
	// guarantee.
	Potential
)

// Algorithms lists every selectable algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{BFDN, BFDNRecursive, CTE, DFS, Levelwise, TreeMining, Potential}
}

// AlgorithmNames lists the canonical names of every selectable algorithm, in
// Algorithms() order — the single source for user-facing algorithm lists in
// CLIs, usage text, and API errors.
func AlgorithmNames() []string {
	algs := Algorithms()
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.String()
	}
	return names
}

// String returns the canonical lower-case name used by the CLIs and the
// bfdnd HTTP API; AlgorithmNames lists them all.
func (a Algorithm) String() string {
	switch a {
	case BFDN:
		return "bfdn"
	case BFDNRecursive:
		return "bfdnl"
	case CTE:
		return "cte"
	case DFS:
		return "dfs"
	case Levelwise:
		return "levelwise"
	case TreeMining:
		return "treemining"
	case Potential:
		return "potential"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// MarshalText encodes the algorithm as its String name, the form the bfdnd
// sweep point schema carries (see SweepSpec).
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// ParseAlgorithm is the inverse of Algorithm.String; the empty string selects
// BFDN (matching the zero SweepPoint.Algorithm).
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return BFDN, nil
	}
	for _, a := range Algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("bfdn: unknown algorithm %q (valid: %s)",
		name, strings.Join(AlgorithmNames(), ", "))
}

type config struct {
	alg      Algorithm
	ell      int
	shortcut bool
	schedule adversary.Schedule
	progress func(Progress)
	// Checkpointing (WithCheckpoint): the job store and the snapshot cadence
	// in committed rounds.
	store     *JobStore
	ckptEvery int
}

// defaultConfig is the single source of Explore's defaults; every entry point
// (Explore, ExploreTraced, SweepStream) starts from it so defaults cannot
// drift.
func defaultConfig() config {
	return config{alg: BFDN, ell: 2}
}

// Option configures Explore.
type Option func(*config)

// WithAlgorithm selects the algorithm (default BFDN).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.alg = a } }

// WithEll sets ℓ for BFDNRecursive (default 2).
func WithEll(ell int) Option { return func(c *config) { c.ell = ell } }

// WithShortcutReanchor enables BFDN's in-place re-anchoring ablation.
func WithShortcutReanchor() Option { return func(c *config) { c.shortcut = true } }

// Progress is the per-round snapshot streamed to a WithProgress observer:
// the committed round count, explored nodes so far, and total moves — the
// quantities the paper's analysis tracks, at gauge granularity.
type Progress struct {
	Round    int
	Explored int
	Moves    int64
}

// WithProgress installs an observer invoked after every simulated round.
// Long explorations can stream round and explored-node progress into live
// gauges without paying for the full trace recorder; the bfdnd daemon feeds
// its bfdnd_sim_* counters this way. The observer runs on the simulating
// goroutine — keep it to a few atomic updates.
func WithProgress(f func(Progress)) Option { return func(c *config) { c.progress = f } }

// WithCheckpoint makes the exploration resumable (DESIGN.md S30): the run
// becomes a content-addressed job in js (identified by the tree, k and the
// other options), its world + algorithm state is snapshotted atomically
// every `every` committed rounds (≤ 0 selects 1024), and the final report
// is journaled so finished jobs replay without simulating. Re-running the
// same call against the same store resumes from the latest snapshot; the
// resumed run is byte-identical to an uninterrupted one. Not compatible
// with WithBreakdowns.
func WithCheckpoint(js *JobStore, every int) Option {
	return func(c *config) { c.store, c.ckptEvery = js, every }
}

// Schedule decides, per round and robot, whether the robot may move (§4.2).
type Schedule interface {
	Allowed(round, robot int) bool
}

// WithBreakdowns runs BFDN under the adversarial break-down schedule; the
// run stops when all edges are explored (robots need not return).
func WithBreakdowns(s Schedule) Option { return func(c *config) { c.schedule = s } }

// BernoulliSchedule blocks each robot independently with probability 1−p
// each round, deterministically per seed.
func BernoulliSchedule(p float64, k int, seed int64) Schedule {
	return &adversary.Bernoulli{P: p, K: k, Seed: seed}
}

// Report summarizes an exploration run.
type Report struct {
	// Rounds is the number of synchronous rounds with at least one move —
	// the paper's runtime T.
	Rounds int `json:"rounds"`
	// Moves counts edge traversals over all robots.
	Moves int64 `json:"moves"`
	// EdgeExplorations counts first traversals of unknown edges (n−1).
	EdgeExplorations int `json:"edgeExplorations"`
	// Bound is the algorithm's applicable guarantee at these parameters:
	// Theorem 1 for BFDN, Theorem 10 for BFDN_ℓ, the Appendix A closed form
	// n/log k + D for CTE, 2(n−1) for DFS, the O(D²) phase bound for
	// Levelwise, the (n/k + D)·2^{O(√log k)} Tree-Mining guarantee, the
	// 2n/k + O(D²) Potential-Function guarantee, and Proposition 7 under
	// break-down schedules. It is 0 only when no closed form applies.
	Bound float64 `json:"bound"`
	// OfflineLowerBound is max{2n/k, 2D}, what an offline optimum needs.
	OfflineLowerBound float64 `json:"offlineLowerBound"`
	// FullyExplored and AllAtRoot report the termination state.
	FullyExplored bool `json:"fullyExplored"`
	AllAtRoot     bool `json:"allAtRoot"`
}

// newSimAlgorithm constructs the algorithm selected by cfg for a run on t
// with k robots, together with the algorithm's closed-form guarantee at these
// parameters; under WithBreakdowns that is BFDN wrapped by the break-down
// schedule, with the Proposition 7 bound. Explore, ExploreTraced and
// SweepStream all build through this one helper so the selection switch
// cannot drift between entry points.
func newSimAlgorithm(t *Tree, k int, cfg config) (sim.Algorithm, float64, error) {
	if cfg.schedule != nil {
		if cfg.alg != BFDN {
			return nil, 0, fmt.Errorf("bfdn: break-down schedules require the BFDN algorithm")
		}
		return adversary.New(k, cfg.schedule), bounds.Proposition7(t.N(), t.Depth(), k), nil
	}
	switch cfg.alg {
	case BFDN:
		var opts []core.Option
		if cfg.shortcut {
			opts = append(opts, core.WithShortcutReanchor())
		}
		return core.NewAlgorithm(k, opts...),
			bounds.Theorem1(t.N(), t.Depth(), k, t.MaxDegree()), nil
	case BFDNRecursive:
		a, err := recursive.NewBFDNL(k, cfg.ell)
		if err != nil {
			return nil, 0, err
		}
		return a, bounds.Theorem10(t.N(), t.Depth(), k, t.MaxDegree(), cfg.ell), nil
	case CTE:
		return cte.New(k),
			bounds.GuaranteeCTE(float64(t.N()), float64(t.Depth()), k), nil
	case DFS:
		return &offline.DFS{}, float64(2 * (t.N() - 1)), nil
	case Levelwise:
		return levelwise.New(k), levelwise.Bound(t.N(), t.Depth(), k), nil
	case TreeMining:
		return treemining.New(k), treemining.Bound(t.N(), t.Depth(), k), nil
	case Potential:
		return potential.New(k), potential.Bound(t.N(), t.Depth(), k), nil
	default:
		return nil, 0, fmt.Errorf("bfdn: unknown algorithm %d", cfg.alg)
	}
}

// Explore runs a collaborative exploration of t with k robots and returns
// the run report.
func Explore(t *Tree, k int, opts ...Option) (*Report, error) {
	return ExploreContext(context.Background(), t, k, opts...)
}

// ExploreContext is Explore with cooperative cancellation: the run is
// abandoned within one simulated round of ctx expiring, returning the
// context's error. The bfdnd daemon uses this to stop serving requests whose
// client has gone away.
func ExploreContext(ctx context.Context, t *Tree, k int, opts ...Option) (*Report, error) {
	rep, _, err := explore(ctx, t, k, 0, opts)
	return rep, err
}

// explore is the one exploration path behind ExploreContext and
// ExploreTraced. It builds the world and the algorithm, resumes a
// WithCheckpoint job from its latest snapshot, and runs to the run's stop
// rule: the first still round, every edge explored under WithBreakdowns,
// or the first still round with a snapshot every ckptEvery rounds under
// WithCheckpoint. traceEvery > 0 records a trace keeping one frame per
// traceEvery rounds.
func explore(ctx context.Context, t *Tree, k, traceEvery int, opts []Option) (*Report, *trace.Recorder, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	switch {
	case traceEvery > 0 && cfg.schedule != nil:
		return nil, nil, fmt.Errorf("bfdn: tracing with break-downs is not supported")
	case traceEvery > 0 && cfg.store != nil:
		// A run traced from a mid-run checkpoint would have no frames for
		// its earlier rounds.
		return nil, nil, fmt.Errorf("bfdn: tracing with WithCheckpoint is not supported")
	case cfg.store != nil && cfg.schedule != nil:
		return nil, nil, fmt.Errorf("bfdn: checkpointed explorations do not support break-down schedules")
	}
	var job *jobstore.Job
	if cfg.store != nil {
		var err error
		if job, _, err = cfg.store.s.OpenOrCreate("explore", explorePlanBytes(t, k, cfg)); err != nil {
			return nil, nil, err
		}
		if job.IsDone() {
			rep, err := journaledReport(job)
			return rep, nil, err
		}
	}
	w, err := sim.NewWorld(t.t, k)
	if err != nil {
		return nil, nil, err
	}
	alg, bound, err := newSimAlgorithm(t, k, cfg)
	if err != nil {
		return nil, nil, err
	}
	var maxRounds int64
	var events []sim.ExploreEvent
	var stop sim.RoundHook
	switch {
	case cfg.schedule != nil:
		maxRounds = 100_000_000
		stop = adversary.UntilExplored(w, maxRounds)
	case job != nil:
		if state, ok, err := job.LoadSnapshot(); err != nil {
			return nil, nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
		} else if ok {
			if events, err = sim.RestoreCheckpoint(state, w, alg); err != nil {
				return nil, nil, fmt.Errorf("bfdn: job %s: %w", job.ID(), err)
			}
		}
		every := cfg.ckptEvery
		if every <= 0 {
			every = 1024
		}
		stop = sim.SaveEvery(w, alg, every, job.SaveSnapshot)
	}
	var rec *trace.Recorder
	if traceEvery > 0 {
		rec = trace.NewRecorder(w, traceEvery)
		stop = rec.Hook(stop)
	}
	// One span for the whole simulation: under a traced bfdnd job this is
	// the explore endpoint's "where did the time go" answer. A context with
	// no span makes Start and both nil-span calls below no-ops.
	sctx, span := tracing.Start(ctx, "sim.run",
		tracing.Int("n", t.N()), tracing.Int("k", k))
	defer span.End()
	res, err := sim.RunContext(sctx, w, alg, maxRounds, events, roundHook(w, cfg, stop))
	if err != nil {
		return nil, nil, err
	}
	span.SetAttr(tracing.Int("rounds", res.Rounds))
	rep := newReport(t, k, bound, res)
	if job != nil {
		if err := job.Append(reportRecord{T: "report", Report: &rep}); err != nil {
			return nil, nil, fmt.Errorf("bfdn: job %s: journal append: %w", job.ID(), err)
		}
		if err := job.MarkDone(); err != nil {
			return nil, nil, err
		}
	}
	return &rep, rec, nil
}

// roundHook is the one per-round hook of every exploration path: the
// WithProgress observer, if any, in front of next (nil: the run ends at the
// first still round).
func roundHook(w *sim.World, cfg config, next sim.RoundHook) sim.RoundHook {
	if cfg.progress == nil {
		return next
	}
	return func(moves []sim.Move, events []sim.ExploreEvent, moved bool) (bool, error) {
		cfg.progress(Progress{Round: w.Round(), Explored: w.ExploredCount(), Moves: w.Moves()})
		if next == nil {
			return !moved, nil
		}
		return next(moves, events, moved)
	}
}

// newReport is the one constructor of a Report: the run's counters and
// termination state, the algorithm's guarantee, and the offline lower
// bound for t and k.
func newReport(t *Tree, k int, bound float64, res sim.Result) Report {
	return Report{
		Rounds:            res.Rounds,
		Moves:             res.Moves,
		EdgeExplorations:  res.EdgeExplorations,
		Bound:             bound,
		OfflineLowerBound: bounds.OfflineLB(t.N(), t.Depth(), k),
		FullyExplored:     res.FullyExplored,
		AllAtRoot:         res.AllAtRoot,
	}
}

// WriteReadReport extends Report with the §4.1 model's resource accounting.
type WriteReadReport struct {
	Rounds             int     `json:"rounds"`
	Moves              int64   `json:"moves"`
	MaxRobotMemoryBits int     `json:"maxRobotMemoryBits"`
	MemoryBudgetBits   int     `json:"memoryBudgetBits"`
	PlannerReads       int     `json:"plannerReads"`
	Bound              float64 `json:"bound"`
	FullyExplored      bool    `json:"fullyExplored"`
	AllAtRoot          bool    `json:"allAtRoot"`
}

// ExploreWriteRead runs the distributed BFDN of §4.1: robots communicate
// with the central planner only at the root and carry Δ + D·log₂Δ bits.
func ExploreWriteRead(t *Tree, k int) (*WriteReadReport, error) {
	e, err := writeread.NewEngine(t.t, k)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(0)
	if err != nil {
		return nil, err
	}
	return &WriteReadReport{
		Rounds:             res.Rounds,
		Moves:              res.Moves,
		MaxRobotMemoryBits: res.MaxRobotMemoryBits,
		MemoryBudgetBits:   e.MemoryModelBits(),
		PlannerReads:       res.PlannerReads,
		Bound:              bounds.Theorem1(t.N(), t.Depth(), k, t.MaxDegree()),
		FullyExplored:      res.FullyExplored,
		AllAtRoot:          res.AllAtRoot,
	}, nil
}

// Rect is an axis-aligned obstacle [X0,X1)×[Y0,Y1) for grid graphs.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Grid is a width×height grid graph with rectangular obstacles (§4.3); the
// origin cell (0,0) must be free, and cells unreachable from it are dropped.
type Grid struct {
	g *graph.Grid
}

// NewGrid builds a grid-graph exploration target.
func NewGrid(width, height int, obstacles []Rect) (*Grid, error) {
	rects := make([]graph.Rect, len(obstacles))
	for i, r := range obstacles {
		rects[i] = graph.Rect{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1}
	}
	g, err := graph.NewGrid(width, height, rects)
	if err != nil {
		return nil, err
	}
	return &Grid{g: g}, nil
}

// Nodes reports the number of free, reachable cells.
func (g *Grid) Nodes() int { return g.g.G.N() }

// Edges reports the number of edges between free cells.
func (g *Grid) Edges() int { return g.g.G.M() }

// Eccentricity reports the largest distance from the origin.
func (g *Grid) Eccentricity() int { return g.g.G.Eccentricity() }

// GridReport summarizes a grid exploration run.
type GridReport struct {
	Rounds      int     `json:"rounds"`
	Moves       int64   `json:"moves"`
	TreeEdges   int     `json:"treeEdges"`
	ClosedEdges int     `json:"closedEdges"`
	Bound       float64 `json:"bound"`
	Complete    bool    `json:"complete"`
}

// ExploreGrid runs the §4.3 graph variant of BFDN on the grid with k
// robots: every edge is traversed; edges violating the distance-increase
// rule are closed, the survivors form a BFS tree.
func ExploreGrid(g *Grid, k int) (*GridReport, error) {
	e, err := graph.NewExplorer(g.g.G, k)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(0)
	if err != nil {
		return nil, err
	}
	return &GridReport{
		Rounds:      res.Rounds,
		Moves:       res.Moves,
		TreeEdges:   res.TreeEdges,
		ClosedEdges: res.ClosedEdges,
		Bound:       bounds.Proposition9(g.g.G.M(), g.g.G.Eccentricity(), k, g.g.G.MaxDegree()),
		Complete:    res.AllEdgesVisited && res.AllAtOrigin,
	}, nil
}

// UrnsGameResult reports a play of the §3 balls-in-urns game.
type UrnsGameResult struct {
	Steps int     `json:"steps"`
	Bound float64 `json:"bound"`
}

// PlayUrnsGame plays the balls-in-urns game with k urns and threshold delta:
// the least-loaded player (the paper's strategy) against the optimal
// adversary derived in the proof of Theorem 3.
func PlayUrnsGame(k, delta int) (*UrnsGameResult, error) {
	b, err := urns.NewBoard(k, delta)
	if err != nil {
		return nil, err
	}
	res, err := urns.Play(b, urns.LeastLoadedPlayer{}, urns.StrategicAdversary{}, 0, false)
	if err != nil {
		return nil, err
	}
	return &UrnsGameResult{Steps: res.Steps, Bound: bounds.Theorem3(k, delta)}, nil
}

// AllocationResult reports the §3 worker-reassignment interpretation.
type AllocationResult struct {
	Makespan      int     `json:"makespan"`
	Reassignments int     `json:"reassignments"`
	Bound         float64 `json:"bound"`
}

// AllocateWorkers schedules k workers on k parallelizable tasks of the given
// (unknown-to-the-scheduler) lengths with the least-crowded reassignment
// rule; reassignments stay below k·log k + 2k whatever the lengths.
func AllocateWorkers(lengths []int) (*AllocationResult, error) {
	res, err := urns.Allocate(lengths)
	if err != nil {
		return nil, err
	}
	return &AllocationResult{
		Makespan:      res.Makespan,
		Reassignments: res.Reassignments,
		Bound:         urns.AllocateBound(len(lengths)),
	}, nil
}

// SweepPoint is one run of a sweep grid: the algorithm on Tree with K
// robots. The zero Algorithm value selects BFDN.
type SweepPoint struct {
	Tree      *Tree
	K         int
	Algorithm Algorithm
	// Ell sets ℓ when Algorithm is BFDNRecursive (0 selects the default 2).
	Ell int
}

// SweepResult is the outcome of one sweep point: the usual exploration
// Report, or the point's error. Other points are unaffected by a failure.
type SweepResult struct {
	Report Report `json:"report"`
	Err    error  `json:"-"`
}

// SweepStats reports the engine throughput of one sweep call.
type SweepStats struct {
	// Points is the number of runs executed, Workers the pool size used.
	Points  int `json:"points"`
	Workers int `json:"workers"`
	// Elapsed is the wall-clock duration; PointsPerSec = Points/Elapsed.
	Elapsed      time.Duration `json:"elapsed"`
	PointsPerSec float64       `json:"pointsPerSec"`
	// AllocsPerPoint is the mean heap allocations per run; worker-local
	// world reuse keeps the simulator's share near zero.
	AllocsPerPoint float64 `json:"allocsPerPoint"`
	// Utilization is mean worker busy time over elapsed time (1 = all
	// workers simulated the whole sweep).
	Utilization float64 `json:"utilization"`
	// Errors is the number of points whose SweepResult carried an error
	// (including points canceled by the context).
	Errors int `json:"errors"`
}

// engineConfig is the resolved configuration of one sweep invocation of
// either engine: the engine options plus the optional job-store attachment
// (DESIGN.md S30).
type engineConfig struct {
	opt   sweep.Options
	store *JobStore
	plan  []byte
}

// EngineOption tunes the sweep engine behind both engines' sweeps
// (SweepContext/SweepStream and SweepAsyncContext/SweepAsyncStream). Unlike
// Option these act on the execution machinery, not the algorithm.
type EngineOption func(*engineConfig)

// WithSweepRecorder attaches an engine metrics recorder to a sweep: point
// latency and queue-wait histograms plus monotonic totals, merged into the
// recorder's registry atomically when the sweep completes. The bfdnd daemon
// uses this to keep bfdnd_sweep_* totals consistent under concurrent sweeps,
// and feeds asynchronous sweeps to a sweep.NewNamedRecorder so their
// bfdnd_async_sweep_* families stay separate. Only in-module callers can
// construct a *sweep.Recorder (the package is internal); external consumers
// read the same numbers from GET /metrics.
func WithSweepRecorder(rec *sweep.Recorder) EngineOption {
	return func(c *engineConfig) { c.opt.Recorder = rec }
}

// WithSeedIndexBase offsets the index used for per-point seed derivation:
// point i of the sweep draws its randomness from seed and index base+i
// instead of i. A coordinator that splits one logical sweep into shards sets
// the base to each shard's first global index, so every point's result is
// identical to the unsharded run wherever the shard executes. The bfdnd
// sweep endpoint exposes this as the request's indexBase field.
func WithSeedIndexBase(base uint64) EngineOption {
	return func(c *engineConfig) { c.opt.IndexBase = base }
}

// WithJobStore makes the sweep resumable (DESIGN.md S30): the sweep becomes
// a content-addressed job in js (identified by its points, seed, and index
// base), every completed point is journaled to the job's WAL before it is
// delivered, and re-running the same sweep against the same store replays
// the journaled points and executes only the missing ones — each with its
// original global seed index, so the combined output is byte-identical to
// an uninterrupted run. Failed points are not journaled; they re-run on
// resume. Resume granularity is the point for both engines: an
// asynchronous point's pending-event heap holds a live randomness stream
// that cannot be serialized, so interrupted points re-run whole.
func WithJobStore(js *JobStore) EngineOption {
	return func(c *engineConfig) { c.store = js }
}

// WithJobStorePlan is WithJobStore with caller-supplied canonical plan
// bytes (must be valid JSON). The bfdnd daemon passes its re-marshaled
// request body so job identity is stable across processes and survives
// facade-internal changes to the default fingerprint.
func WithJobStorePlan(js *JobStore, plan []byte) EngineOption {
	return func(c *engineConfig) { c.store, c.plan = js, plan }
}

// SweepContext executes a grid of independent exploration runs on a sharded
// worker pool with per-worker world reuse: the engine behind the experiment
// suite, exposed for large (algorithm × tree × k) comparisons. workers ≤ 0
// selects GOMAXPROCS; seed scrambles the deterministic per-point randomness.
// Results arrive in point order and are identical at any worker count.
// Per-point failures land in SweepResult.Err; SweepContext itself errors
// only on points that are invalid before running (nil tree, unknown
// algorithm, bad ℓ). After ctx expires every worker stops within one
// simulated round: points completed before the cancellation keep their
// results, and every other point carries the context's error.
func SweepContext(ctx context.Context, points []SweepPoint, workers int, seed int64, engineOpts ...EngineOption) ([]SweepResult, SweepStats, error) {
	return collect(SweepStream, ctx, points, workers, seed, engineOpts)
}

// collect runs a streaming sweep of either engine and returns its results
// in point order.
func collect[P, Res any](stream func(context.Context, []P, int, int64, func(int, Res), ...EngineOption) (SweepStats, error),
	ctx context.Context, points []P, workers int, seed int64, engineOpts []EngineOption) ([]Res, SweepStats, error) {
	out := make([]Res, len(points))
	stats, err := stream(ctx, points, workers, seed, func(i int, r Res) { out[i] = r }, engineOpts...)
	if err != nil {
		return nil, SweepStats{}, err
	}
	return out, stats, nil
}

// SweepStream is SweepContext for consumers that want results as they are
// produced (the bfdnd daemon streams them as JSONL): onResult is invoked
// exactly once per point as soon as the point settles — on the worker
// goroutine that ran it, in completion order, not point order — so it must be
// safe for concurrent calls. Canceled points are reported too, with Err set.
func SweepStream(ctx context.Context, points []SweepPoint, workers int, seed int64, onResult func(index int, res SweepResult), engineOpts ...EngineOption) (SweepStats, error) {
	pts := make([]sweep.Point, len(points))
	pointBounds := make([]float64, len(points))
	for i, p := range points {
		if p.Tree == nil {
			return SweepStats{}, fmt.Errorf("bfdn: sweep point %d: nil tree", i)
		}
		cfg := defaultConfig()
		if p.Algorithm != 0 {
			cfg.alg = p.Algorithm
		}
		if p.Ell != 0 {
			cfg.ell = p.Ell
		}
		// Validate the point (and compute its guarantee) up front, with k
		// clamped so the sweep engine's own k check reports k < 1 per-point.
		_, bound, err := newSimAlgorithm(p.Tree, max(p.K, 1), cfg)
		if err != nil {
			return SweepStats{}, fmt.Errorf("bfdn: sweep point %d: %w", i, err)
		}
		pointBounds[i] = bound
		tr, cfgP := p.Tree, cfg
		// The algorithm alone names the point: of the per-point settings
		// only ℓ varies, and BFDN_ℓ instances are never reset in place.
		pts[i] = sweep.Point{Tree: tr.t, K: p.K, Name: cfg.alg.String(),
			NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
				a, _, err := newSimAlgorithm(tr, k, cfgP)
				if err != nil {
					return nil
				}
				return a
			}}
	}
	e := sweepEngine[sweep.Point, sweep.Result, Report]{
		kind:   "sweep",
		plan:   func(base, indexBase uint64) []byte { return sweepPlanBytes(points, base, indexBase) },
		points: pts,
		run:    sweep.RunContext,
		report: func(i int, r sweep.Result) Report {
			return newReport(points[i].Tree, points[i].K, pointBounds[i], r.Result)
		},
	}
	return e.stream(ctx, workers, seed, engineOpts, func(i int, rep Report, err error) {
		if onResult != nil {
			onResult(i, SweepResult{Report: rep, Err: err})
		}
	})
}

// convertSweepStats maps engine stats to the facade form.
func convertSweepStats(stats sweep.Stats) SweepStats {
	return SweepStats{
		Points:         stats.Points,
		Workers:        stats.Workers,
		Elapsed:        stats.Elapsed,
		PointsPerSec:   stats.PointsPerSec,
		AllocsPerPoint: stats.AllocsPerPoint,
		Utilization:    stats.Utilization,
		Errors:         stats.Errors,
	}
}

// Theorem1Bound evaluates the BFDN guarantee 2n/k + D²(min{log k, log Δ}+3).
func Theorem1Bound(n, depth, k, maxDeg int) float64 {
	return bounds.Theorem1(n, depth, k, maxDeg)
}

// Theorem10Bound evaluates the BFDN_ℓ guarantee of §5.
func Theorem10Bound(n, depth, k, maxDeg, ell int) float64 {
	return bounds.Theorem10(n, depth, k, maxDeg, ell)
}

// OfflineLowerBound evaluates max{2n/k, 2D}.
func OfflineLowerBound(n, depth, k int) float64 {
	return bounds.OfflineLB(n, depth, k)
}

// Figure1Map renders the paper's Figure 1 — which algorithm has the best
// guarantee across the (n, D) plane for k robots — as ASCII art over the
// given log₂ ranges.
func Figure1Map(k int, log2nMin, log2nMax, log2dMin, log2dMax float64, cols, rows int) string {
	return bounds.NewRegionMap(k, log2nMin, log2nMax, log2dMin, log2dMax, cols, rows).Render()
}
