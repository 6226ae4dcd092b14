package async

import (
	"fmt"

	"bfdn/internal/slotindex"
	"bfdn/internal/tree"
)

// Potential ports the Potential Function Method's DFS-slot strategy
// (arXiv:2311.01354, reproduced synchronously in internal/potential) onto
// arrival-instant decisions: the m unclaimed dangling edges are enumerated
// in DFS preorder of the explored tree, robot i chases slot ⌊i·m/k⌋, and on
// reaching the node holding its slot it claims the edge. Claims are
// persistent here exactly as in asynchronous BFDN — an edge leaves the slot
// enumeration the instant it is claimed, not when its endpoint is
// discovered — so the even split is over work nobody has committed to yet.
// With nothing unclaimed the robots climb home and park.
type Potential struct {
	k int
	// slots holds the explored nodes in post-order, each weighted by its
	// unclaimed dangling edges (internal/slotindex). A claim at u takes one
	// from u's weight and inserts a zero-weight element before u for the
	// child being crossed; the claiming robot holds it until it arrives.
	slots slotindex.Index
	// nodeOf[e] is the node element e stands for (tree.Nil while its edge
	// is being crossed).
	nodeOf []tree.NodeID
	// held[i] is the element robot i is crossing towards, or -1.
	held []int32
}

var _ Algorithm = (*Potential)(nil)

// NewPotential returns an asynchronous DFS-slot strategy; Reset sizes it to
// a fleet.
func NewPotential() *Potential { return &Potential{} }

func (p *Potential) String() string { return "potential" }

// Reset implements Algorithm.
func (p *Potential) Reset(k int) {
	p.k = k
	p.slots.Reset()
	p.nodeOf = p.nodeOf[:0]
	p.held = p.held[:0]
	for i := 0; i < k; i++ {
		p.held = append(p.held, -1)
	}
}

// OnExplored implements Algorithm: the root enters the index here. Every
// other discovery is the arrival of the robot that claimed its edge, whose
// Decide follows immediately and gives the held element its node.
func (p *Potential) OnExplored(v View, parent, child tree.NodeID, _ bool) {
	if parent == tree.Nil {
		p.slots.Push(int32(v.Unclaimed(child)))
		p.nodeOf = append(p.nodeOf, child)
	}
}

// Decide implements Algorithm: select slot ⌊i·m/k⌋ in DFS preorder, claim
// on arrival, otherwise take one edge towards it; with m = 0 climb home.
func (p *Potential) Decide(v View, i int) (Move, error) {
	pos := v.Pos(i)
	if e := p.held[i]; e >= 0 {
		// Robot i just crossed its claimed edge: the element it held
		// becomes pos, with pos's dangling edges as its slots.
		p.held[i] = -1
		p.nodeOf[e] = pos
		if c := v.Unclaimed(pos); c > 0 {
			p.slots.Add(e, int32(c))
		} else {
			p.slots.Remove(e)
		}
	}
	m := p.slots.Total()
	if m == 0 {
		if pos == tree.Root {
			return Move{Kind: Park}, nil
		}
		return Move{Kind: MoveTo, To: v.Parent(pos)}, nil
	}
	e, err := p.slots.Select(i * m / p.k)
	if err != nil {
		return Move{}, fmt.Errorf("potential: %w", err)
	}
	u := p.nodeOf[e]
	if pos == u {
		// Claims at u are handed out in port order, so each new child's
		// element lands after its claimed siblings, right before u. A node
		// with nothing left to claim never regains an edge, so it leaves
		// the index, as does a leaf on arrival.
		p.held[i] = p.slots.InsertBefore(e, 0)
		p.nodeOf = append(p.nodeOf, tree.Nil)
		p.slots.Add(e, -1)
		if p.slots.Weight(e) == 0 {
			p.slots.Remove(e)
		}
		return Move{Kind: Claim}, nil
	}
	return stepTowards(v, pos, u), nil
}

// stepTowards returns the one-edge move from pos towards target u ≠ pos:
// down into the child of pos that is an ancestor of u when u lies below
// pos, up otherwise.
func stepTowards(v View, pos, u tree.NodeID) Move {
	dp, du := v.DepthOf(pos), v.DepthOf(u)
	if du <= dp {
		return Move{Kind: MoveTo, To: v.Parent(pos)}
	}
	c := u
	for ; du > dp+1; du-- {
		c = v.Parent(c)
	}
	if v.Parent(c) == pos {
		return Move{Kind: MoveTo, To: c}
	}
	return Move{Kind: MoveTo, To: v.Parent(pos)}
}
