package graph

import (
	"fmt"

	"bfdn/internal/openindex"
	"bfdn/internal/tree"
)

// edgeStatus classifies a (node, port) slot during exploration.
type edgeStatus int8

const (
	edgeUnknown edgeStatus = iota // not yet traversed
	edgeTree                      // kept: parent→child edge of the BFS tree
	edgeClosed                    // traversed and discarded (rules (1)/(2))
)

// Explorer runs the graph variant of BFDN (§4.3): BFDN on the explored
// portion, where a robot that traverses an unknown edge backtracks and
// closes the edge if it leads to an already-explored node (rule 1) or to a
// node not strictly farther from the origin (rule 2). Surviving edges form a
// BFS tree, on which the usual anchor machinery operates; tree depth equals
// oracle distance, and node IDs serve as the tree's node IDs.
type Explorer struct {
	g *Graph
	k int

	status  [][]edgeStatus
	selRnd  [][]int32 // round stamp of the last selection of (node, port)
	untried []int32   // count of Unknown ports at each node
	parent  []int32   // BFS-tree parent of explored non-origin nodes
	expl    []bool

	robots []gRobot
	idx    *openindex.Index
	round  int32

	exploredNodes int
	classified    int // ports with status != Unknown (2 per edge when done)
	metrics       GMetrics
}

type gRobotMode int8

const (
	modeDecide    gRobotMode = iota + 1 // choose DN move (or re-anchor at origin)
	modeBF                              // descending the stack towards the anchor
	modeProbe                           // crossed an unknown edge last round; classify on arrival
	modeBacktrack                       // return through the port it came from
)

type gRobot struct {
	mode   gRobotMode
	pos    int32
	anchor int32
	stack  []int32 // nodes on the path to the anchor, popped from the end
	// probeFrom is the node the robot probed from; modeBacktrack returns
	// the robot there.
	probeFrom int32
}

// GMetrics summarizes a graph exploration run.
type GMetrics struct {
	Rounds int
	Moves  int64
	// ClosedEdges counts edges discarded by rules (1)/(2).
	ClosedEdges int
	// TreeEdges counts the surviving BFS-tree edges (= n−1 at completion).
	TreeEdges int
}

// NewExplorer creates a k-robot explorer on g.
func NewExplorer(g *Graph, k int) (*Explorer, error) {
	if k < 1 {
		return nil, fmt.Errorf("graph: need k ≥ 1 robots, got %d", k)
	}
	e := &Explorer{
		g:       g,
		k:       k,
		status:  make([][]edgeStatus, g.N()),
		selRnd:  make([][]int32, g.N()),
		untried: make([]int32, g.N()),
		parent:  make([]int32, g.N()),
		expl:    make([]bool, g.N()),
		robots:  make([]gRobot, k),
		idx:     openindex.New(false),
	}
	for u := 0; u < g.N(); u++ {
		e.status[u] = make([]edgeStatus, g.Degree(int32(u)))
		e.selRnd[u] = make([]int32, g.Degree(int32(u)))
		for p := range e.selRnd[u] {
			e.selRnd[u][p] = -1
		}
		e.untried[u] = int32(g.Degree(int32(u)))
		e.parent[u] = -1
	}
	e.expl[g.Origin()] = true
	e.exploredNodes = 1
	for i := range e.robots {
		e.robots[i] = gRobot{mode: modeDecide, pos: g.Origin(), anchor: g.Origin()}
	}
	if e.untried[g.Origin()] > 0 {
		e.idx.AddOpen(tree.NodeID(g.Origin()), 0)
	}
	e.idx.ChangeLoad(tree.NodeID(g.Origin()), 0, k)
	return e, nil
}

// Result of a graph exploration run.
type GResult struct {
	GMetrics
	AllEdgesVisited bool
	AllAtOrigin     bool
}

// Run executes rounds until no robot moves, or maxRounds (≤0: 3·m·D cap).
func (e *Explorer) Run(maxRounds int64) (GResult, error) {
	if maxRounds <= 0 {
		maxRounds = 3*int64(e.g.M()+1)*int64(e.g.Eccentricity()+1) + 16
	}
	for r := int64(0); r < maxRounds; r++ {
		moved, err := e.step()
		if err != nil {
			return GResult{}, err
		}
		if !moved {
			return e.result(), nil
		}
	}
	return GResult{}, fmt.Errorf("graph: no termination within %d rounds", maxRounds)
}

func (e *Explorer) result() GResult {
	res := GResult{GMetrics: e.metrics, AllEdgesVisited: e.classified == 2*e.g.M(), AllAtOrigin: true}
	for i := range e.robots {
		if e.robots[i].pos != e.g.Origin() {
			res.AllAtOrigin = false
		}
	}
	return res
}

// step runs one synchronous round. Robots decide sequentially (reservations
// via round-stamped port selection); arrivals over unknown edges are
// classified in robot order at the end of the round.
func (e *Explorer) step() (bool, error) {
	moved := false
	type arrival struct {
		robot int
		from  int32
		port  int32 // port at `from` that was crossed
	}
	var probes []arrival
	for i := range e.robots {
		r := &e.robots[i]
		switch r.mode {
		case modeBacktrack:
			// Forced return through the edge crossed last round.
			r.pos = r.probeFrom
			r.mode = modeDecide
			e.metrics.Moves++
			moved = true
		case modeBF:
			next := r.stack[len(r.stack)-1]
			r.stack = r.stack[:len(r.stack)-1]
			r.pos = next
			if len(r.stack) == 0 {
				r.mode = modeDecide
			}
			e.metrics.Moves++
			moved = true
		case modeProbe:
			return false, fmt.Errorf("graph: robot %d still in probe mode at round start", i)
		case modeDecide:
			if r.pos == e.g.Origin() {
				if err := e.reanchor(i); err != nil {
					return false, err
				}
				if len(r.stack) > 0 {
					next := r.stack[len(r.stack)-1]
					r.stack = r.stack[:len(r.stack)-1]
					r.pos = next
					if len(r.stack) > 0 {
						r.mode = modeBF
					}
					e.metrics.Moves++
					moved = true
					continue
				}
			}
			// DN: pick an unknown, unselected port.
			port := e.pickUnknownPort(r.pos)
			if port >= 0 {
				e.selRnd[r.pos][port] = e.round
				dest := e.g.Neighbor(r.pos, port)
				probes = append(probes, arrival{robot: i, from: r.pos, port: int32(port)})
				r.probeFrom = r.pos
				r.pos = dest
				r.mode = modeProbe
				e.metrics.Moves++
				moved = true
				continue
			}
			// No unknown edge here: go up the BFS tree, or stay at origin.
			if r.pos != e.g.Origin() {
				r.pos = e.parent[r.pos]
				e.metrics.Moves++
				moved = true
			}
		default:
			return false, fmt.Errorf("graph: robot %d has invalid mode %d", i, r.mode)
		}
	}
	// Classify probe arrivals in robot order.
	for _, a := range probes {
		r := &e.robots[a.robot]
		dest := r.pos
		if e.status[a.from][a.port] != edgeUnknown {
			// The opposite robot crossed the same edge this round and already
			// classified it (the paper's "swap identities" case): bounce.
			r.mode = modeBacktrack
			continue
		}
		du, dw := e.g.Dist(a.from), e.g.Dist(dest)
		switch {
		case !e.expl[dest] && dw > du:
			// Genuine discovery: dest joins the tree.
			e.expl[dest] = true
			e.exploredNodes++
			e.parent[dest] = a.from
			e.classify(a.from, a.port, edgeTree)
			e.metrics.TreeEdges++
			if e.untried[dest] > 0 {
				e.idx.AddOpen(tree.NodeID(dest), dw)
			}
			r.mode = modeDecide
		default:
			// Rule (1) or (2): close the edge and bounce back next round.
			e.classify(a.from, a.port, edgeClosed)
			e.metrics.ClosedEdges++
			r.mode = modeBacktrack
		}
	}
	if moved {
		e.metrics.Rounds++
	}
	e.round++
	return moved, nil
}

// classify marks both sides of edge (u, port) and updates the untried
// counters and the open index.
func (e *Explorer) classify(u int32, port int32, st edgeStatus) {
	w := e.g.Neighbor(u, int(port))
	q := e.g.ReversePort(u, int(port))
	e.status[u][port] = st
	e.status[w][q] = st
	e.classified += 2
	e.untried[u]--
	e.untried[w]--
	if e.untried[u] == 0 && e.expl[u] {
		e.idx.Close(tree.NodeID(u), e.g.Dist(u))
	}
	if e.untried[w] == 0 && e.expl[w] {
		e.idx.Close(tree.NodeID(w), e.g.Dist(w))
	}
}

// pickUnknownPort returns an unknown port of u not selected this round, or -1.
func (e *Explorer) pickUnknownPort(u int32) int {
	for p := range e.status[u] {
		if e.status[u][p] == edgeUnknown && e.selRnd[u][p] != e.round {
			return p
		}
	}
	return -1
}

// reanchor assigns robot i the least-loaded open node of minimal distance
// (the BFDN Reanchor rule with depth = oracle distance).
func (e *Explorer) reanchor(i int) error {
	r := &e.robots[i]
	e.idx.ChangeLoad(tree.NodeID(r.anchor), e.g.Dist(r.anchor), -1)
	anchor := e.g.Origin()
	if d, ok := e.idx.MinOpenDepth(-1); ok {
		a, err := e.idx.PickMinLoad(d)
		if err != nil {
			return err
		}
		anchor = int32(a)
	}
	r.anchor = anchor
	e.idx.ChangeLoad(tree.NodeID(anchor), e.g.Dist(anchor), 1)
	r.stack = r.stack[:0]
	for v := anchor; v != e.g.Origin(); v = e.parent[v] {
		r.stack = append(r.stack, v)
	}
	return nil
}
