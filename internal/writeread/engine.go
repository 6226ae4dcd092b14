// Package writeread implements the restricted-memory, restricted-
// communication model of §4.1 of the paper and the distributed version of
// BFDN that runs in it (Proposition 6).
//
// Robots communicate with a central planner only when located at the root.
// At every other node they see only the local whiteboard: the list of
// "finished" ports (ports through which a robot has returned towards the
// node) and the local PARTITION routine, which hands out each downward port
// to at most one robot, in decreasing port order, and port 0 (up) once all
// downward ports are dispatched. Each robot carries Δ + D·log₂Δ + O(log D)
// bits of internal memory: a stack of port numbers leading to its anchor,
// the finished-port bitmap of its anchor, and a relative depth counter.
//
// Because the information model differs from the complete-communication
// simulator (locality has to be enforced at whiteboard granularity, and
// robots address edges by port number rather than by reservation order),
// the package ships its own synchronous engine rather than reusing
// package sim.
package writeread

import (
	"fmt"

	"bfdn/internal/tree"
)

type robotState int

const (
	// stateAtRoot: the robot is at the root awaiting planner instructions.
	stateAtRoot robotState = iota + 1
	// stateOutbound: the robot is consuming its port stack towards its anchor.
	stateOutbound
	// stateExploring: the robot is at or below its anchor, driven by PARTITION.
	stateExploring
	// stateReturning: the robot climbs through port 0 back to the root.
	stateReturning
	// stateDone: the planner has no work left for this robot.
	stateDone
)

// robot is the mobile agent with its bounded internal memory.
type robot struct {
	state robotState
	// stack holds the port numbers from the root to the anchor, last element
	// popped first (d·⌈log₂Δ⌉ bits).
	stack []int
	// anchorBits is the finished-port bitmap snapshot of the anchor (Δ bits).
	anchorBits []bool
	// relDepth is the robot's depth below its anchor (O(log D) bits).
	relDepth int
	// anchor is the planner-side record of the assignment; formally the
	// planner remembers it, so it does not count against robot memory.
	anchor tree.NodeID
	// maxBits tracks the robot's peak memory use for the Prop 6 accounting.
	maxBits int
}

// whiteboard is the per-node shared state of the model.
type whiteboard struct {
	// nextDown is the next downward port PARTITION will dispatch; counts
	// down. -1 (root: below first child port) / 0 (non-root) means exhausted.
	nextDown int
	// finished[p] reports that a robot has returned (moved up) through port p.
	finished []bool
	init     bool
}

// Metrics summarizes a run.
type Metrics struct {
	// Rounds counts rounds in which at least one robot moved.
	Rounds int
	// Moves counts edge traversals.
	Moves int64
	// MaxRobotMemoryBits is the peak per-robot memory use observed.
	MaxRobotMemoryBits int
	// PlannerReads counts robot→planner memory reads (root contacts).
	PlannerReads int
}

// Engine runs the distributed BFDN on a hidden tree.
type Engine struct {
	t        *tree.Tree
	k        int
	pos      []tree.NodeID
	robots   []robot
	boards   []whiteboard
	explored []bool
	planner  *planner
	metrics  Metrics

	exploredCount int
	logDelta      int // ⌈log₂Δ⌉, the per-port memory cost
}

// NewEngine creates a write-read engine with k robots on tree t.
func NewEngine(t *tree.Tree, k int) (*Engine, error) {
	if k < 1 {
		return nil, fmt.Errorf("writeread: need k ≥ 1 robots, got %d", k)
	}
	e := &Engine{
		t:             t,
		k:             k,
		pos:           make([]tree.NodeID, k),
		robots:        make([]robot, k),
		boards:        make([]whiteboard, t.N()),
		explored:      make([]bool, t.N()),
		exploredCount: 1,
		logDelta:      ceilLog2(t.MaxDegree()),
	}
	e.explored[tree.Root] = true
	for i := range e.robots {
		e.robots[i].state = stateAtRoot
	}
	e.planner = newPlanner()
	e.planner.setResolver(t.NeighborAtPort)
	return e, nil
}

// ceilLog2 returns ⌈log₂ x⌉ for x ≥ 1 (exact at powers of two: 2^b needs
// exactly b). x ≤ 1 returns 0 by convention — a degenerate tree (Δ ≤ 1, a
// path or single node) needs zero bits per port number. The loop form avoids
// the float round-trip, which misrounds near large powers of two.
func ceilLog2(x int) int {
	b := 0
	for 1<<b < x {
		b++
	}
	return b
}

// board returns the (lazily initialized) whiteboard of node v.
func (e *Engine) board(v tree.NodeID) *whiteboard {
	wb := &e.boards[v]
	if !wb.init {
		deg := e.t.Degree(v)
		wb.finished = make([]bool, deg)
		// Downward ports are deg-1 .. 1 at non-root nodes (port 0 is the
		// parent) and deg-1 .. 0 at the root.
		wb.nextDown = deg - 1
		wb.init = true
	}
	return wb
}

// partition implements the local PARTITION(v) routine: hand out the next
// downward port, or port 0 (up) once all are dispatched. At the root, -1
// signals "nothing left" (⊥).
func (e *Engine) partition(v tree.NodeID) int {
	wb := e.board(v)
	lowest := 1
	if v == tree.Root {
		lowest = 0
	}
	if wb.nextDown >= lowest {
		p := wb.nextDown
		wb.nextDown--
		return p
	}
	if v == tree.Root {
		return -1
	}
	return 0
}

// Result of a run.
type Result struct {
	Metrics
	FullyExplored bool
	AllAtRoot     bool
}

// Run executes rounds until no robot moves, or maxRounds elapses (≤ 0 picks
// the 3·n·D termination cap). It returns an error only for internal
// inconsistencies.
func (e *Engine) Run(maxRounds int64) (Result, error) {
	if maxRounds <= 0 {
		n, d := int64(e.t.N()), int64(e.t.Depth())
		maxRounds = 3*n*d + 2*d + 16
	}
	for r := int64(0); r < maxRounds; r++ {
		moved, err := e.step()
		if err != nil {
			return Result{}, err
		}
		if !moved {
			allAtRoot := true
			for _, p := range e.pos {
				if p != tree.Root {
					allAtRoot = false
				}
			}
			return Result{
				Metrics:       e.metrics,
				FullyExplored: e.exploredCount == e.t.N(),
				AllAtRoot:     allAtRoot,
			}, nil
		}
	}
	return Result{}, fmt.Errorf("writeread: no termination within %d rounds on %s", maxRounds, e.t)
}

// step executes one synchronous round and reports whether any robot moved.
func (e *Engine) step() (bool, error) {
	// Phase 1: planner interaction — read memory of robots at the root, then
	// (re-)anchor them.
	var atRoot []int
	for i := range e.robots {
		r := &e.robots[i]
		if e.pos[i] != tree.Root {
			continue
		}
		if r.state == stateReturning {
			// The robot arrived home: the planner reads its memory. Robots
			// in stateExploring that pass through the root (anchor = root,
			// mid-PARTITION) are NOT returns and keep exploring.
			e.planner.readReturn(r.anchor, r.anchorBits)
			e.metrics.PlannerReads++
			r.state = stateAtRoot
			r.anchorBits = nil
		}
		if r.state == stateAtRoot {
			atRoot = append(atRoot, i)
		}
	}
	for _, i := range atRoot {
		r := &e.robots[i]
		anchor, ports, ok := e.planner.assign()
		if !ok {
			r.state = stateDone
			continue
		}
		r.anchor = anchor
		// Stack the port path in reverse: the first hop is popped first.
		r.stack = r.stack[:0]
		for j := len(ports) - 1; j >= 0; j-- {
			r.stack = append(r.stack, ports[j])
		}
		r.relDepth = 0
		if len(r.stack) == 0 {
			r.state = stateExploring
		} else {
			r.state = stateOutbound
		}
		e.noteMemory(r)
	}

	// Phase 2: each robot selects its move using only local information
	// (whiteboard + own memory); moves are applied immediately node-locally,
	// which matches the synchronous write-then-read semantics because all
	// whiteboard updates of the round commute (distinct PARTITION dispatches,
	// idempotent finished-marks).
	anyMoved := false
	for i := range e.robots {
		moved, err := e.stepRobot(i)
		if err != nil {
			return false, err
		}
		anyMoved = anyMoved || moved
	}
	if anyMoved {
		e.metrics.Rounds++
	}
	return anyMoved, nil
}

func (e *Engine) stepRobot(i int) (bool, error) {
	r := &e.robots[i]
	switch r.state {
	case stateAtRoot, stateDone:
		return false, nil
	case stateOutbound:
		p := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if err := e.move(i, p, false); err != nil {
			return false, fmt.Errorf("outbound robot %d: %w", i, err)
		}
		if len(r.stack) == 0 {
			r.state = stateExploring
		}
		return true, nil
	case stateExploring:
		pos := e.pos[i]
		p := e.partition(pos)
		if p < 0 {
			// ⊥ at the root: the root anchor is exhausted.
			r.anchorBits = e.snapshot(pos)
			r.state = stateReturning
			e.noteMemory(r)
			return false, nil
		}
		up := pos != tree.Root && p == 0
		if up && r.relDepth == 0 {
			// PARTITION at the anchor sends the robot home: snapshot the
			// anchor's finished ports first (§4.1: the robot stores them in
			// its Δ extra bits for the planner). This ascent does NOT mark
			// the anchor's parent port finished — the robot entered the
			// anchor by SELECT, not through that port's PARTITION dispatch.
			r.anchorBits = e.snapshot(pos)
			r.state = stateReturning
		}
		// A port is "finished" only when the robot that PARTITION dispatched
		// into it comes back out: that is exactly an ascent from strictly
		// below the robot's anchor (it reached that node via PARTITION).
		mark := up && r.relDepth > 0
		if up {
			r.relDepth--
		} else {
			r.relDepth++
		}
		e.noteMemory(r)
		if err := e.move(i, p, mark); err != nil {
			return false, fmt.Errorf("exploring robot %d: %w", i, err)
		}
		return true, nil
	case stateReturning:
		if e.pos[i] == tree.Root {
			return false, nil
		}
		if err := e.move(i, 0, false); err != nil {
			return false, fmt.Errorf("returning robot %d: %w", i, err)
		}
		return true, nil
	default:
		return false, fmt.Errorf("robot %d in invalid state %d", i, r.state)
	}
}

// snapshot copies the finished-port bitmap of node v.
func (e *Engine) snapshot(v tree.NodeID) []bool {
	wb := e.board(v)
	return append([]bool(nil), wb.finished...)
}

// move sends robot i through port p of its current node; when markFinished
// is set (a PARTITION-dispatched robot exiting its subtree) the port of the
// parent leading back is marked finished on the parent's whiteboard.
func (e *Engine) move(i, p int, markFinished bool) error {
	from := e.pos[i]
	to := e.t.NeighborAtPort(from, p)
	if to == tree.Nil {
		return fmt.Errorf("no neighbour at port %d of node %d", p, from)
	}
	if markFinished && from != tree.Root && p == 0 {
		q := e.t.PortToward(to, from)
		e.board(to).finished[q] = true
	}
	if !e.explored[to] {
		e.explored[to] = true
		e.exploredCount++
	}
	e.pos[i] = to
	e.metrics.Moves++
	return nil
}

// noteMemory updates the peak memory accounting for robot r: the port stack
// plus the anchor bitmap (the relative depth counter adds O(log D) bits,
// reported separately by MemoryModelBits).
func (e *Engine) noteMemory(r *robot) {
	bits := len(r.stack)*e.logDelta + len(r.anchorBits)
	if bits > r.maxBits {
		r.maxBits = bits
	}
	if r.maxBits > e.metrics.MaxRobotMemoryBits {
		e.metrics.MaxRobotMemoryBits = r.maxBits
	}
}

// MemoryModelBits returns the Δ + D·log₂Δ budget of §4.1 for this tree.
func (e *Engine) MemoryModelBits() int {
	return e.t.MaxDegree() + e.t.Depth()*e.logDelta
}
