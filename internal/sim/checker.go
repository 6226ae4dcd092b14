package sim

import (
	"context"
	"fmt"

	"bfdn/internal/tree"
)

// Checker validates per-round model invariants of a World. It holds both
// sides of the abstraction (hidden tree and positions), so it lives in
// tests and harnesses, never in algorithms.
type Checker struct {
	w       *World
	prevPos []tree.NodeID
}

// NewChecker snapshots the world's current state.
func NewChecker(w *World) *Checker {
	return &Checker{
		w:       w,
		prevPos: append([]tree.NodeID(nil), w.pos...),
	}
}

// Check validates the state after one Apply call: the world's state is
// consistent (checkState) and robots moved by at most one edge. It updates
// the snapshot.
func (c *Checker) Check() error {
	w := c.w
	if err := w.checkState(); err != nil {
		return err
	}
	for i, p := range w.pos {
		prev := c.prevPos[i]
		if p != prev && w.t.Parent(p) != prev && w.t.Parent(prev) != p {
			return fmt.Errorf("sim: robot %d jumped from %d to %d (not adjacent)", i, prev, p)
		}
	}
	copy(c.prevPos, w.pos)
	return nil
}

// Round is the Checker as a RoundHook: it checks every committed round and
// ends the run at the first still round.
func (c *Checker) Round(_ []Move, _ []ExploreEvent, moved bool) (bool, error) {
	if err := c.Check(); err != nil {
		return false, fmt.Errorf("sim: round %d: %w", c.w.round-1, err)
	}
	return !moved, nil
}

// RunChecked is Run with a Checker validating every round; it is O(n) per
// round and intended for tests on small trees.
func RunChecked(w *World, a Algorithm, maxRounds int64) (Result, error) {
	return RunContext(context.Background(), w, a, maxRounds, nil, NewChecker(w).Round)
}

// checkState validates the world's state between rounds: every robot
// stands on an explored node, the explored set is closed under parents,
// each explored node's explored children are exactly the first
// NumChildren − dangling of its children, and the explored count and the
// discovered-edge accounting match a recount. It is O(n); Restore runs it
// once on every checkpoint, and the Checker after every round.
func (w *World) checkState() error {
	t, n := w.t, w.t.N()
	for i, p := range w.pos {
		if p < 0 || int(p) >= n || !w.explored(p) {
			return fmt.Errorf("sim: robot %d stands on unexplored node %d", i, p)
		}
	}
	count, discovered := 0, 0
	for v := tree.NodeID(0); int(v) < n; v++ {
		if !w.explored(v) {
			continue
		}
		count++
		discovered += t.NumChildren(v)
		if v != tree.Root && !w.explored(t.Parent(v)) {
			return fmt.Errorf("sim: explored node %d has unexplored parent", v)
		}
		nk := w.nextKid(v)
		if nk < 0 {
			return fmt.Errorf("sim: node %d has dangling count %d beyond degree", v, w.dangling[v])
		}
		for j, c := range t.Children(v) {
			if w.explored(c) != (j < nk) {
				return fmt.Errorf("sim: node %d: child %d is explored=%v, its cursor is %d", v, c, w.explored(c), nk)
			}
		}
	}
	if count != w.exploredCount {
		return fmt.Errorf("sim: explored count %d, recount %d", w.exploredCount, count)
	}
	if discovered != w.metrics.DiscoveredEdges {
		return fmt.Errorf("sim: discovered edges %d, recount %d", w.metrics.DiscoveredEdges, discovered)
	}
	return nil
}
