package async

import (
	"bfdn/internal/openindex"
	"bfdn/internal/tree"
)

// BFDN is the natural asynchronous Breadth-First Depth-Next strategy, the
// engine's original policy extracted behind the Algorithm interface: a
// robot deciding at the root with no planned walk is anchored at the
// least-loaded open node of minimal depth (the Reanchor rule) and walks
// there; at and below its anchor it performs depth-next moves, claiming
// dangling edges at decision time so no two robots ever chase the same
// edge; with nothing open it parks at the root.
type BFDN struct {
	opens  *openindex.Index
	robots []bRobot
}

type bRobot struct {
	anchor      tree.NodeID
	anchorDepth int
	// stack is the planned walk to the robot's anchor, deepest node last.
	stack []tree.NodeID
}

var _ Algorithm = (*BFDN)(nil)

// NewBFDN returns an asynchronous BFDN strategy; Reset sizes it to a fleet.
func NewBFDN() *BFDN { return &BFDN{opens: openindex.New(false)} }

func (b *BFDN) String() string { return "bfdn" }

// Reset implements Algorithm.
func (b *BFDN) Reset(k int) {
	b.opens.Reset()
	if cap(b.robots) >= k {
		b.robots = b.robots[:k]
	} else {
		b.robots = make([]bRobot, k)
	}
	for i := range b.robots {
		b.robots[i].anchor = tree.Root
		b.robots[i].anchorDepth = 0
		b.robots[i].stack = b.robots[i].stack[:0]
		b.opens.ChangeLoad(tree.Root, 0, 1)
	}
}

// OnExplored implements Algorithm: newly discovered nodes with dangling
// edges join the open index at their depth.
func (b *BFDN) OnExplored(v View, _, child tree.NodeID, open bool) {
	if open {
		b.opens.AddOpen(child, v.DepthOf(child))
	}
}

// Decide implements Algorithm: walk the planned path if one is pending,
// else depth-next with a persistent claim, else climb, else reanchor/park.
func (b *BFDN) Decide(v View, i int) (Move, error) {
	r := &b.robots[i]
	pos := v.Pos(i)
	if pos == tree.Root && len(r.stack) == 0 {
		if err := b.reanchor(v, i); err != nil {
			return Move{}, err
		}
	}
	if len(r.stack) > 0 {
		next := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		return Move{Kind: MoveTo, To: next}, nil
	}
	if u := v.Unclaimed(pos); u > 0 {
		if u == 1 {
			// Claiming the last dangling edge closes the node.
			b.opens.Close(pos, v.DepthOf(pos))
		}
		return Move{Kind: Claim}, nil
	}
	if pos != tree.Root {
		return Move{Kind: MoveTo, To: v.Parent(pos)}, nil
	}
	return Move{Kind: Park}, nil
}

// reanchor assigns the least-loaded open node of minimal depth (the BFDN
// Reanchor rule) and plans the walk there, or leaves the robot anchored at
// the root when nothing is open.
func (b *BFDN) reanchor(v View, i int) error {
	r := &b.robots[i]
	b.opens.ChangeLoad(r.anchor, r.anchorDepth, -1)
	anchor, depth := tree.Root, 0
	if d, ok := b.opens.MinOpenDepth(-1); ok {
		a, err := b.opens.PickMinLoad(d)
		if err != nil {
			return err
		}
		anchor, depth = a, d
	}
	r.anchor, r.anchorDepth = anchor, depth
	b.opens.ChangeLoad(anchor, depth, 1)
	r.stack = r.stack[:0]
	for u := anchor; u != tree.Root; u = v.Parent(u) {
		r.stack = append(r.stack, u)
	}
	return nil
}
