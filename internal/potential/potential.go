// Package potential implements collective tree exploration by the Potential
// Function Method of Cosson and Massoulié, "Collective Tree Exploration via
// Potential Function Method" (arXiv:2311.01354, ITCS 2024) — the simplest
// guarantee in the BFDN research line, of the form 2n/k + O(D²) without the
// log k factor of BFDN's Theorem 1.
//
// The algorithm is a global greedy analysed in the paper through a potential
// function that combines the robots' distances to their assigned targets
// with the remaining amount of unexplored boundary. The reproduction
// instantiates the strategy the analysis certifies: every round the dangling
// (unexplored) edges are enumerated in depth-first (preorder) order of the
// partially explored tree, robot i is assigned target slot ⌊i·m/k⌋ of the m
// open slots — an even split of the robot supply over the frontier in DFS
// order — and every robot moves one edge along the tree path towards the
// node holding its slot, traversing the slot's dangling edge on arrival.
// With k = 1 the single robot always chases the DFS-first open edge and the
// walk degenerates to an exact depth-first traversal (2(n−1) moves), which
// is where the 2n/k term is tight; the D² term pays for re-walking at most
// D edges each time a subtree is exhausted. Once no open edge remains the
// robots climb back to the root, so the run terminates with every robot
// home.
//
// Bound is the reproduction's explicit-constant instantiation of the
// paper's 2n/k + O(D²) guarantee; the cross-algorithm invariant suite
// checks every measured run stays inside it.
package potential

import (
	"fmt"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Potential is the algorithm state. It implements sim.Algorithm. The DFS
// slot order lives in the world (View.OpenSlot, DESIGN.md S31), so the
// rule keeps nothing across rounds but its move buffer.
type Potential struct {
	k     int
	moves []sim.Move
}

var _ sim.Algorithm = (*Potential)(nil)

// New returns a Potential-Function instance for k robots.
func New(k int) *Potential {
	return &Potential{
		k:     k,
		moves: make([]sim.Move, k),
	}
}

// Bound evaluates the reproduction's explicit-constant instantiation of the
// paper's 2n/k + O(D²) guarantee:
//
//	2n/k + 3D² + 2D + 2
//
// The paper states the D² coefficient asymptotically; the constants here
// are chosen conservatively so that every measured run of this
// implementation sits inside the envelope (asserted by the invariant suite
// and experiment E15).
func Bound(n, depth, k int) float64 {
	d := float64(depth)
	return 2*float64(n)/float64(k) + 3*d*d + 2*d + 2
}

// Reset re-initializes p to the start state of a fresh New(k) while keeping
// every scratch buffer; a run on a Reset instance is byte-identical to a run
// on a fresh one (the sweep engine's algorithm-reuse contract).
func (p *Potential) Reset(k int) {
	p.k = k
	if cap(p.moves) >= k {
		p.moves = p.moves[:k]
	} else {
		p.moves = make([]sim.Move, k)
	}
	for i := range p.moves {
		p.moves[i] = sim.Move{}
	}
}

// SelectMoves implements sim.Algorithm. The world keeps the slot order
// current from its own explore events, so the events are not needed here.
func (p *Potential) SelectMoves(v *sim.View, _ []sim.ExploreEvent) ([]sim.Move, error) {
	m := v.OpenSlots()
	if m == 0 {
		// Exploration done: climb home, stay at the root. A full round of
		// stays ends the run.
		for i := 0; i < p.k; i++ {
			if v.Pos(i) == tree.Root {
				p.moves[i] = sim.Move{Kind: sim.Stay}
			} else {
				p.moves[i] = sim.Move{Kind: sim.Up}
			}
		}
		return p.moves, nil
	}

	// Even split of robots over the m open slots in DFS order. Slots are
	// nondecreasing in the robot index, so each distinct slot is selected
	// once, and consecutive robots sharing a slot also share one
	// reservation ticket (legal co-traversal: only the first arrival
	// triggers the explore event).
	lastSlot := -1
	var u tree.NodeID
	var lastTicket sim.Ticket
	haveTicket := false
	for i := 0; i < p.k; i++ {
		slot := i * m / p.k
		if slot != lastSlot {
			var err error
			if u, err = v.OpenSlot(slot); err != nil {
				return nil, fmt.Errorf("potential: %w", err)
			}
			lastSlot, haveTicket = slot, false
		}
		pos := v.Pos(i)
		if pos == u {
			if !haveTicket {
				tk, ok := v.ReserveDangling(u)
				if !ok {
					return nil, fmt.Errorf("potential: node %d: reservation failed for slot %d of %d", u, slot, m)
				}
				lastTicket, haveTicket = tk, true
			}
			p.moves[i] = sim.Move{Kind: sim.Explore, Ticket: lastTicket}
			continue
		}
		if c := v.Toward(pos, u); c == v.Parent(pos) {
			p.moves[i] = sim.Move{Kind: sim.Up}
		} else {
			p.moves[i] = sim.Move{Kind: sim.Down, Child: c}
		}
	}
	return p.moves, nil
}
