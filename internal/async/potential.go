package async

import (
	"fmt"

	"bfdn/internal/tree"
)

// Potential ports the Potential Function Method's DFS-slot strategy
// (arXiv:2311.01354, reproduced synchronously in internal/potential) onto
// arrival-instant decisions: the m unclaimed dangling edges are enumerated
// in DFS order of the explored tree (View.OpenSlot), robot i chases slot
// ⌊i·m/k⌋, and on reaching the node holding its slot it claims the edge.
// Claims are persistent here exactly as in asynchronous BFDN — an edge
// leaves the slot enumeration the instant it is claimed, not when its
// endpoint is discovered — so the even split is over work nobody has
// committed to yet. With nothing unclaimed the robots climb home and park.
// The engine keeps the slot order, so the strategy holds no state.
type Potential struct{}

var _ Algorithm = (*Potential)(nil)

// NewPotential returns an asynchronous DFS-slot strategy.
func NewPotential() *Potential { return &Potential{} }

func (p *Potential) String() string { return "potential" }

// Reset implements Algorithm.
func (p *Potential) Reset(int) {}

// OnExplored implements Algorithm.
func (p *Potential) OnExplored(View, tree.NodeID, tree.NodeID, bool) {}

// Decide implements Algorithm: select slot ⌊i·m/k⌋ in DFS order, claim on
// arrival, otherwise take one edge towards it; with m = 0 climb home.
func (p *Potential) Decide(v View, i int) (Move, error) {
	pos := v.Pos(i)
	m := v.OpenSlots()
	if m == 0 {
		if pos == tree.Root {
			return Move{Kind: Park}, nil
		}
		return Move{Kind: MoveTo, To: v.Parent(pos)}, nil
	}
	u, err := v.OpenSlot(i * m / v.K())
	if err != nil {
		return Move{}, fmt.Errorf("potential: %w", err)
	}
	if pos == u {
		return Move{Kind: Claim}, nil
	}
	return Move{Kind: MoveTo, To: v.Toward(pos, u)}, nil
}
