// Package cte implements the Collective Tree Exploration algorithm of
// Fraigniaud, Gasieniec, Kowalski and Pelc (2006) — reference [10] of the
// paper — as the baseline BFDN is compared against.
//
// CTE keeps the robots in groups: all robots located at a node v whose
// subtree still contains unexplored edges split as evenly as possible among
// the "alive" targets at v (explored children whose subtree has a dangling
// edge, and the dangling edges at v itself); robots at a node whose subtree
// is fully explored move up towards the root. Groups may traverse a dangling
// edge together. CTE explores any tree in O(n/log k + D) rounds, which is
// the best known competitive ratio, O(k/log k); its additive overhead over
// 2n/k can however reach Ω(Dk/log k) (Higashikawa et al. [11]), which is
// what experiment E10 exhibits against BFDN.
package cte

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/teams"
	"bfdn/internal/tree"
)

// CTE is the algorithm state. It implements sim.Algorithm.
type CTE struct {
	k int
	// open counts the dangling edges in each subtree T(v).
	open teams.Counts
	// Reusable scratch: moves is the returned move vector, grouper finds the
	// co-located groups, targets is the per-group alive-target list.
	moves   []sim.Move
	grouper teams.Grouper
	targets []target
}

// target is one alive destination of a group: an explored child with an open
// subtree, or a dangling edge at the node itself.
type target struct {
	kind   sim.MoveKind
	child  tree.NodeID
	ticket sim.Ticket
}

var _ sim.Algorithm = (*CTE)(nil)

// New returns a CTE instance for k robots.
func New(k int) *CTE {
	return &CTE{k: k, moves: make([]sim.Move, k)}
}

// Reset re-initializes c to the start state of a fresh New(k) while keeping
// every scratch buffer, so a recycled instance runs without constructing
// anything. A run on a Reset instance is byte-identical to a run on a fresh
// one; the sweep engine's algorithm-reuse path relies on this.
func (c *CTE) Reset(k int) {
	c.k = k
	if cap(c.moves) >= k {
		c.moves = c.moves[:k]
	} else {
		c.moves = make([]sim.Move, k)
	}
	for i := range c.moves {
		c.moves[i] = sim.Move{}
	}
	c.open.Reset()
	c.targets = c.targets[:0]
}

// SelectMoves implements sim.Algorithm. Groups are disjoint by node and
// reserve dangling edges only at their own node, so the order they are
// decided in cannot change a move.
func (c *CTE) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	c.open.Update(v, events)
	if err := c.grouper.Each(v, c.decideGroup); err != nil {
		return nil, err
	}
	return c.moves, nil
}

// decideGroup assigns this round's moves for the robots located at node.
func (c *CTE) decideGroup(v *sim.View, node tree.NodeID, robots []int32) error {
	if c.open.Get(node) == 0 {
		// Subtree fully explored: head home.
		for _, r := range robots {
			if node == tree.Root {
				c.moves[r] = sim.Move{Kind: sim.Stay}
			} else {
				c.moves[r] = sim.Move{Kind: sim.Up}
			}
		}
		return nil
	}
	// Alive targets: explored children with open subtrees, then dangling
	// edges at node (one target per dangling edge, shared tickets).
	c.targets = c.targets[:0]
	for _, ch := range v.ExploredChildren(node) {
		if c.open.Get(ch) > 0 {
			c.targets = append(c.targets, target{kind: sim.Down, child: ch})
		}
	}
	nd := v.UnreservedDanglingAt(node)
	if nd > len(robots) {
		nd = len(robots) // no point opening more edges than robots present
	}
	for j := 0; j < nd; j++ {
		tk, ok := v.ReserveDangling(node)
		if !ok {
			return fmt.Errorf("cte: node %d: reservation failed with %d reported dangling", node, nd)
		}
		c.targets = append(c.targets, target{kind: sim.Explore, ticket: tk})
	}
	if len(c.targets) == 0 {
		// open>0 but nothing actionable at node: all dangling edges here were
		// reserved by other groups (impossible: groups are disjoint by node)
		// — defensive error.
		return fmt.Errorf("cte: node %d: open subtree without alive targets", node)
	}
	// Even split: robot j goes to target j mod len(targets).
	for j, r := range robots {
		t := c.targets[j%len(c.targets)]
		switch t.kind {
		case sim.Down:
			c.moves[r] = sim.Move{Kind: sim.Down, Child: t.child}
		case sim.Explore:
			c.moves[r] = sim.Move{Kind: sim.Explore, Ticket: t.ticket}
		}
	}
	return nil
}
