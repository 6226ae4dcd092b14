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
	"math/rand"

	"bfdn/internal/sim"
	"bfdn/internal/slotindex"
	"bfdn/internal/tree"
)

// Potential is the algorithm state. It implements sim.Algorithm.
type Potential struct {
	k      int
	moves  []sim.Move
	seeded bool

	// slots holds the explored nodes in post-order, each weighted by its
	// dangling edges: the DFS slot order (DESIGN.md S31), maintained from
	// explore events in O(log n) each.
	slots slotindex.Index
	// elemOf[v] is explored node v's slot element; elems[e] records the
	// node element e stands for and its parent's element, which is all a
	// checkpoint needs to derive per-subtree open counts without a View.
	elemOf []int32
	elems  []elemNode

	// restored holds the open counts of a restored checkpoint until the
	// first SelectMoves rebuilds slots from the view (RestoreState has
	// none); a snapshot taken before then re-emits them verbatim.
	restored []int32
	rebuild  bool
}

// elemNode is the node behind one slot element and its parent's element
// (-1 for the root). Parents are explored first, so up < the element's own
// handle.
type elemNode struct {
	node tree.NodeID
	up   int32
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
	p.slots.Reset()
	p.elems = p.elems[:0]
	p.restored = p.restored[:0]
	p.rebuild = false
	p.seeded = false
}

// SelectMoves implements sim.Algorithm.
func (p *Potential) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	if p.rebuild {
		// The restored world already holds the checkpoint's pending events,
		// so the view alone is the state to index.
		p.rebuildFrom(v)
	} else {
		if !p.seeded {
			p.add(tree.Root, -1, v.DanglingAt(tree.Root))
			p.seeded = true
		}
		for _, e := range events {
			// Events of one parent arrive in port order (robots reserve in
			// index order, and reservations hand out ports in that order),
			// so each new child lands after its explored siblings. A node
			// without dangling edges never gains one, so it leaves the
			// index: a leaf at once, a parent with its last edge.
			pe := p.elemOf[e.Parent]
			if ce := p.add(e.Child, pe, e.NewDangling); e.NewDangling == 0 {
				p.slots.Remove(ce)
			}
			p.slots.Add(pe, -1)
			if p.slots.Weight(pe) == 0 {
				p.slots.Remove(pe)
			}
		}
	}

	m := p.slots.Total()
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
			e, err := p.slots.Select(slot)
			if err != nil {
				return nil, fmt.Errorf("potential: %w", err)
			}
			u = p.elems[e].node
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
		p.moves[i] = stepTowards(v, pos, u)
	}
	return p.moves, nil
}

// add inserts explored node v, whose parent holds element up (-1 for the
// root), with its dangling edges as weight: immediately before the
// parent's element, after the parent's earlier explored children. It
// returns v's element.
func (p *Potential) add(v tree.NodeID, up int32, dangling int) int32 {
	var e int32
	if up < 0 {
		e = p.slots.Push(int32(dangling))
	} else {
		e = p.slots.InsertBefore(up, int32(dangling))
	}
	p.elems = append(p.elems, elemNode{node: v, up: up})
	if int(v) >= len(p.elemOf) {
		p.elemOf = append(p.elemOf, make([]int32, int(v)+1-len(p.elemOf))...)
	}
	p.elemOf[v] = e
	return e
}

// rebuildFrom indexes the explored part of the view from scratch, parents
// before children and siblings in port order — the order a run's own
// explore events would have inserted them.
func (p *Potential) rebuildFrom(v *sim.View) {
	p.slots.Reset()
	p.elems = p.elems[:0]
	p.add(tree.Root, -1, v.DanglingAt(tree.Root))
	for e := int32(0); int(e) < len(p.elems); e++ {
		u := p.elems[e].node
		for _, c := range v.ExploredChildren(u) {
			p.add(c, e, v.DanglingAt(c))
		}
		if p.slots.Weight(e) == 0 {
			p.slots.Remove(e)
		}
	}
	p.restored = p.restored[:0]
	p.rebuild = false
	p.seeded = true
}

// stepTowards returns the one-edge move from pos towards target u ≠ pos:
// down into the child of pos that is an ancestor of u when u lies below
// pos, up otherwise.
func stepTowards(v *sim.View, pos, u tree.NodeID) sim.Move {
	dp := v.DepthOf(pos)
	du := v.DepthOf(u)
	if du <= dp {
		return sim.Move{Kind: sim.Up}
	}
	c := u
	for ; du > dp+1; du-- {
		c = v.Parent(c)
	}
	if v.Parent(c) == pos {
		return sim.Move{Kind: sim.Down, Child: c}
	}
	return sim.Move{Kind: sim.Up}
}

// Recycle is the factory-reset hook for the sweep engine's algorithm-reuse
// path (sweep.Point.ResetAlgorithm): it resets and returns the worker's
// previous instance when it is a Potential, and returns nil (fresh
// construction) otherwise. The method takes no configuration, so any
// instance is recyclable.
func Recycle(prev sim.Algorithm, k int, _ *rand.Rand) sim.Algorithm {
	if p, ok := prev.(*Potential); ok {
		p.Reset(k)
		return p
	}
	return nil
}
