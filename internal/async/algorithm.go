package async

import (
	"fmt"
	"strings"

	"bfdn/internal/tree"
)

// MoveKind enumerates what a robot can do at a decision instant.
type MoveKind uint8

const (
	// Park keeps the robot idle at the root until new open work appears
	// (the engine wakes every parked robot the instant a node with hidden
	// children is discovered). Parking anywhere else is an engine error.
	Park MoveKind = iota
	// Claim takes the next dangling edge of the robot's current node, in
	// port order, and starts crossing it; the hidden endpoint becomes
	// explored when the traversal completes. Claiming at a node with no
	// dangling edge is an engine error.
	Claim
	// MoveTo starts a traversal to Move.To, which must be the parent of the
	// current node or one of its already-explored children.
	MoveTo
)

// Move is an Algorithm's decision for one robot at one arrival instant.
type Move struct {
	Kind MoveKind
	// To is the destination for MoveTo and ignored otherwise.
	To tree.NodeID
}

// Algorithm decides robot moves at arrival instants. It is the
// continuous-time counterpart of sim.Algorithm: instead of selecting a
// synchronized round of moves it is asked for one robot's move whenever
// that robot finishes a traversal (or is woken at the root). The engine
// owns positions, claims, and time; the algorithm owns strategy state.
//
// Implementations are not safe for concurrent use; the sweep engine gives
// each worker its own instance. Reset must return the instance to the state
// of a freshly constructed one — a run on a Reset instance must be
// byte-identical to a run on a fresh one (the sweep reuse contract from the
// synchronous engine, extended here).
type Algorithm interface {
	// Reset prepares the algorithm for a fresh run with k robots, all at the
	// root. The engine calls it before the first event (and again on every
	// Engine.Reset), followed by OnExplored for the root.
	Reset(k int)
	// OnExplored reports that child just became explored via the edge from
	// parent; open is true when child has dangling edges of its own. The
	// root is announced once per run with parent == tree.Nil.
	OnExplored(v View, parent, child tree.NodeID, open bool)
	// Decide returns the move for robot i, which just arrived at v.Pos(i).
	// A returned error aborts the run.
	Decide(v View, i int) (Move, error)
	// String names the algorithm as NewNamedAlgorithm accepts it.
	String() string
}

// View is the algorithm's read-only window onto the engine: the explored
// part of the tree, robot positions, per-node claim state, and the clock.
// It is only valid for the duration of the Algorithm call it is passed to.
type View struct {
	e *Engine
}

// K is the fleet size.
func (v View) K() int { return len(v.e.speeds) }

// Pos is robot i's current node (the far endpoint while mid-traversal).
func (v View) Pos(i int) tree.NodeID { return v.e.pos[i] }

// Parent is u's parent in the tree.
func (v View) Parent(u tree.NodeID) tree.NodeID { return v.e.t.Parent(u) }

// DepthOf is u's depth (root = 0).
func (v View) DepthOf(u tree.NodeID) int { return v.e.t.DepthOf(u) }

// Unclaimed counts u's dangling edges not yet claimed by any robot. Claims
// are handed out in port order, so this shrinks by one per Claim at u and
// never grows.
func (v View) Unclaimed(u tree.NodeID) int {
	return v.e.t.NumChildren(u) - int(v.e.claimed[u])
}

// OpenSlots reports m, the number of unclaimed dangling edges at explored
// nodes: the open slots of the DFS-slot rule.
func (v View) OpenSlots() int { return v.e.openSlots().Total() }

// OpenSlot returns the explored node holding open slot s. The slots
// enumerate the unclaimed edges in depth-first order of the explored
// tree, a node's explored or claimed child subtrees in port order before
// its own unclaimed edges. It fails when s is outside [0, OpenSlots()).
// O(log n).
func (v View) OpenSlot(s int) (tree.NodeID, error) {
	r, err := v.e.openSlots().Select(s)
	if err != nil {
		return tree.Nil, err
	}
	return v.e.t.AtRank(r), nil
}

// Toward returns the neighbour of explored node from one edge closer to
// explored node to ≠ from: the child of from that is an ancestor of to,
// or from's parent when to is not below from. O(log Δ).
func (v View) Toward(from, to tree.NodeID) tree.NodeID { return v.e.t.NextHop(from, to) }

// NewNamedAlgorithm constructs a registered Algorithm by name ("bfdn",
// "potential") — the spelling the bfdn facade, sweep grids, and the bfdnd
// asyncsweep job type carry.
func NewNamedAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "bfdn":
		return NewBFDN(), nil
	case "potential":
		return NewPotential(), nil
	}
	return nil, fmt.Errorf("async: unknown algorithm %q (valid: %s)",
		name, strings.Join(AlgorithmNames(), ", "))
}

// AlgorithmNames lists the registered algorithm names in display order.
func AlgorithmNames() []string { return []string{"bfdn", "potential"} }
