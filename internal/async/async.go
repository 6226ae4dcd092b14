// Package async implements the continuous-time relaxation of the model that
// Remark 8 of the paper puts forward ("another extension of interest would
// consist in relaxing the slotted time assumption to consider instead
// continuous time evolution, which could capture more realistic
// scenarios"): robots have heterogeneous speeds, edge traversals take time
// drawn from a pluggable latency model around the nominal 1/speed, and
// decisions happen at arrival instants rather than in synchronized rounds.
//
// The package is the repo's second first-class engine, split the same way
// as the synchronous one: Engine owns the mechanics — the event heap, the
// clock, robot positions, persistent dangling-edge claims, discovery, and
// move validation — while an Algorithm owns strategy, deciding one robot's
// move at each arrival instant through a read-only View. Two strategies
// ship: asynchronous BFDN (anchor at the least-loaded open node of minimal
// depth, depth-next below it) and the Potential Function Method's DFS-slot
// rule ported to arrival instants. Latency models (constant, bounded
// jitter, heavy-tail Pareto) draw from a single seeded stream in event
// order, so a run is a pure function of (tree, speeds, algorithm, latency,
// seed) — the determinism the sweep layer's splitmix64 scheme relies on.
// Engines and algorithms Reset for reuse across sweep points without
// reallocation, matching the synchronous engine's recycling contract.
package async

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"bfdn/internal/obs/tracing"
	"bfdn/internal/slotindex"
	"bfdn/internal/tree"
)

// ErrAlreadyRun is returned by Run on an engine whose run already happened;
// call Reset to prepare another one. (A silent second run used to re-push
// every robot at t=0 over the finished state and return garbage.)
var ErrAlreadyRun = errors.New("async: engine already ran; Reset it before running again")

// Engine is the event-driven continuous-time simulator. It owns time,
// positions, and claims; the strategy is the pluggable Algorithm.
type Engine struct {
	t      *tree.Tree
	speeds []float64
	alg    Algorithm
	lat    Latency
	seed   int64
	rng    *rand.Rand

	explored []bool
	// claimed[v] counts dangling edges of v already claimed; claims are
	// handed out in port order, so Children(v)[claimed[v]] is next.
	claimed []int32

	pos []tree.NodeID
	// pendingChild[i] is the hidden endpoint of a claimed dangling edge
	// robot i is currently crossing (Nil otherwise).
	pendingChild []tree.NodeID
	idle         []int // robots parked at the root awaiting work
	workWoke     bool  // new open work appeared during the current event

	events   eventHeap
	seq      uint64
	now      float64
	explCnt  int
	workDist []float64
	ran      bool

	// slots indexes the unclaimed counts of explored nodes by the tree's
	// post-order rank, the DFS slot order (DESIGN.md S31): built on the
	// first View.OpenSlots or OpenSlot of a run, then kept current by
	// arrive and Claim.
	slots     slotindex.Index
	slotsLive bool
}

// event is one robot's arrival, keyed by the 128-bit number (at, seq): at holds
// the IEEE-754 bits of the arrival time and seq the push sequence. Arrival
// times are non-negative, and non-negative floats order like their bits,
// so the key orders events by time and then by push order.
type event struct {
	at, seq uint64
	robot   int
}

// eventHeap is a binary min-heap of events on their keys. Keys are unique,
// so the pop order is fixed by the keys alone.
type eventHeap []event

// before is 1 when a's key is below b's and 0 otherwise, computed without
// a data-dependent branch: the borrow out of the 128-bit subtraction a − b.
func before(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return int(borrow)
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if before(&q[j], &q[i]) == 0 {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes the earliest event. The hole it leaves walks down to a leaf
// along the earlier child, which before picks without a branch, and the
// last event then sifts up from there: the only data-dependent branch left
// is that short climb.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q = q[:n]
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		if j+1 < n {
			j += before(&q[j+1], &q[j])
		}
		q[i] = q[j]
		i = j
	}
	for i > 0 {
		p := (i - 1) / 2
		if before(&last, &q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return top
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithAlgorithm selects the decision strategy (default: NewBFDN()).
func WithAlgorithm(alg Algorithm) Option { return func(e *Engine) { e.alg = alg } }

// WithLatency selects the traversal-time model (default: Constant{}).
func WithLatency(lat Latency) Option { return func(e *Engine) { e.lat = lat } }

// WithSeed seeds the latency stream (default: 1). Runs under Constant
// ignore it.
func WithSeed(seed int64) Option { return func(e *Engine) { e.seed = seed } }

// NewEngine creates a continuous-time exploration of t; speeds[i] > 0 is
// the edge-traversal rate of robot i. Defaults reproduce the original
// fixed-policy engine: asynchronous BFDN under constant latency.
func NewEngine(t *tree.Tree, speeds []float64, opts ...Option) (*Engine, error) {
	e := &Engine{alg: NewBFDN(), lat: Constant{}, seed: 1}
	for _, o := range opts {
		o(e)
	}
	if err := e.Reset(t, speeds, e.seed); err != nil {
		return nil, err
	}
	return e, nil
}

// Rebind swaps the strategy and latency model; nil leaves a component
// unchanged. It takes effect at the next Reset, which must happen before
// the next run — sweep workers use it to move one engine across grid
// points with different algorithms.
func (e *Engine) Rebind(alg Algorithm, lat Latency) {
	if alg != nil {
		e.alg = alg
	}
	if lat != nil {
		e.lat = lat
	}
	e.ran = true // force a Reset before the next Run
}

// Reset prepares the engine for a fresh run on t with the given fleet and
// latency seed, keeping every allocation it can. A run on a Reset engine is
// byte-identical to a run on a freshly constructed one with the same
// configuration.
func (e *Engine) Reset(t *tree.Tree, speeds []float64, seed int64) error {
	if len(speeds) == 0 {
		return fmt.Errorf("async: need at least one robot")
	}
	for i, s := range speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("async: robot %d has invalid speed %v", i, s)
		}
	}
	e.t = t
	e.speeds = append(e.speeds[:0], speeds...)
	e.seed = seed
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(seed))
	} else {
		e.rng.Seed(seed) // the same stream as a fresh source, without its 5 KB
	}

	e.explored = resizeBool(e.explored, t.N())
	e.claimed = resizeInt32(e.claimed, t.N())
	k := len(speeds)
	e.pos = append(e.pos[:0], make([]tree.NodeID, k)...)
	e.pendingChild = e.pendingChild[:0]
	e.workDist = append(e.workDist[:0], make([]float64, k)...)
	for i := 0; i < k; i++ {
		e.pendingChild = append(e.pendingChild, tree.Nil)
	}
	e.idle = e.idle[:0]
	e.workWoke = false
	e.events = e.events[:0]
	e.seq, e.now, e.explCnt = 0, 0, 1
	e.ran = false
	if !e.slotsLive {
		// As sim.World.Reset: keep the slot index only for a run that
		// follows one that used it.
		e.slots = slotindex.Index{}
	}
	e.slotsLive = false

	e.explored[tree.Root] = true
	e.alg.Reset(k)
	e.alg.OnExplored(View{e}, tree.Nil, tree.Root, t.NumChildren(tree.Root) > 0)
	return nil
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Result summarizes a continuous-time run.
type Result struct {
	// Makespan is the instant the last robot finishes its final move.
	Makespan float64
	// WorkDist[i] counts edges traversed by robot i.
	WorkDist []float64
	// Events is the number of scheduler events processed.
	Events int64
	// FullyExplored and AllAtRoot describe the terminal state.
	FullyExplored bool
	AllAtRoot     bool
}

// Run executes the event loop to completion; see RunContext.
func (e *Engine) Run(maxEvents int64) (Result, error) {
	return e.RunContext(context.Background(), maxEvents)
}

// RunContext executes the event loop to completion, checking ctx
// periodically (every 128 events) so long runs cancel promptly. maxEvents
// ≤ 0 selects a generous cap far above any legal run. An engine runs once;
// a second call without an intervening Reset returns ErrAlreadyRun.
func (e *Engine) RunContext(ctx context.Context, maxEvents int64) (Result, error) {
	if e.ran {
		return Result{}, ErrAlreadyRun
	}
	e.ran = true
	if maxEvents <= 0 {
		maxEvents = 64*int64(len(e.speeds)+1)*int64(e.t.N())*int64(e.t.Depth()+2) + 64
	}
	for i := range e.pos {
		e.push(0, i)
	}
	// Phase spans, only when the caller's context carries one (a sampled
	// sweep.point span, or a traced ExploreAsync): the heap-drain loop as a
	// whole, and the validation time inside it accumulated per event. The
	// untraced run pays one nil check and no clock reads.
	traced := tracing.FromContext(ctx) != nil
	var drainStart time.Time
	var validateNs int64
	var claims int64
	if traced {
		drainStart = time.Now()
	}
	n := int64(0)
	for ; len(e.events) > 0; n++ {
		if n >= maxEvents {
			return Result{}, fmt.Errorf("async: event budget exhausted (%d)", maxEvents)
		}
		if n&127 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("async: run canceled after %d events: %w", n, err)
			}
		}
		ev := e.events.pop()
		e.now = math.Float64frombits(ev.at)
		i := ev.robot
		e.arrive(i)
		mv, err := e.alg.Decide(View{e}, i)
		if err != nil {
			return Result{}, fmt.Errorf("async: %s: %w", e.alg, err)
		}
		if traced {
			if mv.Kind == Claim {
				claims++
			}
			v0 := time.Now()
			err = e.apply(i, mv)
			validateNs += time.Since(v0).Nanoseconds()
		} else {
			err = e.apply(i, mv)
		}
		if err != nil {
			return Result{}, err
		}
		// New open work discovered during this event wakes parked robots at
		// the same instant; seq ordering keeps the run deterministic.
		if e.workWoke && len(e.idle) > 0 {
			slices.Sort(e.idle)
			for _, w := range e.idle {
				e.push(e.now, w)
			}
			e.idle = e.idle[:0]
		}
		e.workWoke = false
	}
	if traced {
		drainEnd := time.Now()
		tracing.Record(ctx, "async.drain", drainStart, drainEnd,
			tracing.Int64("events", n), tracing.Int("robots", len(e.speeds)))
		// async.claims is an aggregate: its duration is the cumulative
		// claim/move validation time across the drain, not a wall interval.
		tracing.Record(ctx, "async.claims", drainStart, drainStart.Add(time.Duration(validateNs)),
			tracing.Int64("claims", claims))
	}
	res := Result{
		Makespan:      e.now,
		WorkDist:      append([]float64(nil), e.workDist...),
		Events:        n,
		FullyExplored: e.explCnt == e.t.N(),
		AllAtRoot:     true,
	}
	for _, p := range e.pos {
		if p != tree.Root {
			res.AllAtRoot = false
		}
	}
	return res, nil
}

// push schedules robot at time at ≥ 0 (travel keeps every arrival at or
// after now, and the clock starts at 0).
func (e *Engine) push(at float64, robot int) {
	e.events.push(event{at: math.Float64bits(at), seq: e.seq, robot: robot})
	e.seq++
}

// openSlots returns the DFS-slot index, building it from the claim state
// on the first call of a run.
func (e *Engine) openSlots() *slotindex.Index {
	if !e.slotsLive {
		t := e.t
		e.slots.Build(t.N(), func(r int) int32 {
			if v := t.AtRank(r); e.explored[v] {
				return int32(t.NumChildren(v)) - e.claimed[v]
			}
			return 0
		})
		e.slotsLive = true
	}
	return &e.slots
}

// arrive finalizes a pending dangling-edge crossing: the hidden child
// becomes explored, the algorithm is told, and parked robots will be woken
// if the child opens new work.
func (e *Engine) arrive(i int) {
	c := e.pendingChild[i]
	if c == tree.Nil {
		return
	}
	e.pendingChild[i] = tree.Nil
	e.explored[c] = true
	e.explCnt++
	nc := e.t.NumChildren(c)
	open := nc > 0
	if open {
		e.workWoke = true
		if e.slotsLive {
			e.slots.Add(e.t.Rank(c), int32(nc))
		}
	}
	e.alg.OnExplored(View{e}, e.t.Parent(c), c, open)
}

// apply validates and executes one decision: parking is only legal at the
// root, claims require a dangling edge, and MoveTo must cross a single
// known edge (to the parent or an explored child). Violations are strategy
// bugs and abort the run with an actionable error.
func (e *Engine) apply(i int, mv Move) error {
	pos := e.pos[i]
	switch mv.Kind {
	case Park:
		if pos != tree.Root {
			return fmt.Errorf("async: %s: robot %d parked at node %d (parking is only legal at the root)", e.alg, i, pos)
		}
		e.idle = append(e.idle, i)
		return nil
	case Claim:
		if int(e.claimed[pos]) >= e.t.NumChildren(pos) {
			return fmt.Errorf("async: %s: robot %d claimed at node %d with no dangling edge left", e.alg, i, pos)
		}
		child := e.t.Children(pos)[e.claimed[pos]]
		e.claimed[pos]++
		if e.slotsLive {
			e.slots.Add(e.t.Rank(pos), -1)
		}
		e.pendingChild[i] = child
		return e.travel(i, child)
	case MoveTo:
		to := mv.To
		down := to >= 0 && int(to) < e.t.N() && e.t.Parent(to) == pos && e.explored[to]
		up := pos != tree.Root && to == e.t.Parent(pos)
		if !down && !up {
			return fmt.Errorf("async: %s: robot %d at node %d moved to %d, not the parent or an explored child", e.alg, i, pos, to)
		}
		return e.travel(i, to)
	}
	return fmt.Errorf("async: %s: robot %d returned unknown move kind %d", e.alg, i, mv.Kind)
}

// travel starts robot i's traversal to to, sampling its duration from the
// latency model. A sample that is NaN or below the nominal 1/speed breaks
// the Latency contract, and with it the floor LowerBound and the event
// keys rely on, so it is an error.
func (e *Engine) travel(i int, to tree.NodeID) error {
	e.pos[i] = to
	e.workDist[i]++
	d, nominal := e.lat.Sample(e.speeds[i], e.rng), 1/e.speeds[i]
	if !(d >= nominal) {
		return fmt.Errorf("async: latency %s sampled %v for robot %d, below its nominal traversal time %v", e.lat, d, i, nominal)
	}
	e.push(e.now+d, i)
	return nil
}

// LowerBound is the offline floor in continuous time: every edge crossed
// twice by the fleet working at aggregate speed Σsᵢ, and some robot must
// reach depth D and return at its own speed. Latency models only delay
// traversals beyond the nominal 1/speed, so the floor holds under every
// Latency.
func LowerBound(n, depth int, speeds []float64) float64 {
	var total, fastest float64
	for _, s := range speeds {
		total += s
		if s > fastest {
			fastest = s
		}
	}
	lb := 2 * float64(n-1) / total
	if d := 2 * float64(depth) / fastest; d > lb {
		lb = d
	}
	return lb
}
