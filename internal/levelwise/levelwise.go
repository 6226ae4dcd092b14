// Package levelwise implements the phase-synchronized exploration algorithm
// the paper's "Open directions" section points at (Ortolf–Schindelhauer
// [13]): "a simple algorithm explores any tree in O(D²) rounds as soon as
// k ≥ n/D". Together with the Ω(D²) lower bound for k = n of Disser et al.
// [6], it brackets the best-possible additive overhead and is the natural
// comparison point for BFDN's 2n/k + O(D² log k) (experiment E12).
//
// The algorithm works in phases. At the start of a phase all robots stand at
// the root and the algorithm knows the current dangling edges. It assigns up
// to k of them (shallowest first, one robot each); every robot walks down to
// its edge, crosses it, and walks straight back; the phase ends when all
// robots are home. Edges discovered mid-phase wait for the next phase.
//
// Each phase lasts at most 2(D+1) rounds. A phase that clears every known
// dangling edge strictly increases the minimum dangling depth, so there are
// at most D such phases; every other phase explores exactly k edges, so
// there are at most ⌈(n−1)/k⌉ of those. Hence
//
//	T ≤ 2(D+1)·(D + ⌈(n−1)/k⌉)
//
// which is O(D²) whenever k ≥ n/D.
package levelwise

import (
	"fmt"
	"slices"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Levelwise implements sim.Algorithm.
type Levelwise struct {
	k int

	// count[v] is the number of dangling edges at v. buckets[d] lists the
	// nodes of depth d that were discovered with dangling edges; every
	// bucket below lo is closed for good.
	count   []int32
	buckets []bucket
	lo      int

	plans  []plan
	moves  []sim.Move
	seeded bool
	// Phases counts completed assignment phases (for tests).
	Phases int
}

// bucket is the open list of one depth. A closed node never reopens, so
// the cursor past the closed prefix nodes[:closed] only moves forward;
// nodes[closed:sorted] are in id order, and the nodes appended after them
// are sorted in when the bucket is next used.
type bucket struct {
	nodes          []tree.NodeID
	closed, sorted int
}

type plan struct {
	// down holds the path to the target's parent node, popped from the end.
	down []tree.NodeID
	// explore is the node at which to reserve a dangling edge (Nil if done).
	explore tree.NodeID
	// up counts the remaining upward moves after exploring.
	up int
}

var _ sim.Algorithm = (*Levelwise)(nil)

// New returns a level-wise explorer for k robots.
func New(k int) *Levelwise {
	l := &Levelwise{}
	l.Reset(k)
	return l
}

// Reset re-initializes l to the start state of a fresh New(k) while keeping
// its storage; a run on a Reset instance is byte-identical to a run on a
// fresh one (the sweep engine's algorithm-reuse contract).
func (l *Levelwise) Reset(k int) {
	l.k = k
	if cap(l.plans) < k {
		l.plans = make([]plan, k)
	}
	l.plans = l.plans[:k]
	for i := range l.plans {
		l.plans[i] = plan{down: l.plans[i].down[:0], explore: tree.Nil}
	}
	if cap(l.moves) < k {
		l.moves = make([]sim.Move, k)
	}
	l.moves = l.moves[:k]
	clear(l.count)
	for i := range l.buckets {
		l.buckets[i] = bucket{nodes: l.buckets[i].nodes[:0]}
	}
	l.lo = 0
	l.seeded, l.Phases = false, 0
}

// Bound evaluates the runtime guarantee 2(D+1)·(D + ⌈(n−1)/k⌉).
func Bound(n, depth, k int) float64 {
	phases := float64(depth) + float64((n-2+k)/k)
	return 2 * float64(depth+1) * phases
}

// addOpen files node, discovered with count dangling edges, in its bucket.
func (l *Levelwise) addOpen(v *sim.View, node tree.NodeID, count int) {
	if count <= 0 {
		return
	}
	if n := int(node) + 1; n > len(l.count) {
		l.count = append(l.count, make([]int32, max(n, 2*len(l.count))-len(l.count))...)
	}
	l.count[node] = int32(count)
	d := v.DepthOf(node)
	for d >= len(l.buckets) {
		l.buckets = append(l.buckets, bucket{})
	}
	l.buckets[d].nodes = append(l.buckets[d].nodes, node)
}

// SelectMoves implements sim.Algorithm.
func (l *Levelwise) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	if !l.seeded {
		l.seeded = true
		l.addOpen(v, tree.Root, v.DanglingAt(tree.Root))
	}
	for _, e := range events {
		if int(e.Parent) < len(l.count) && l.count[e.Parent] > 0 {
			l.count[e.Parent]--
		}
		l.addOpen(v, e.Child, e.NewDangling)
	}
	if l.phaseDone(v) {
		l.startPhase(v)
	}
	for i := 0; i < l.k; i++ {
		m, err := l.step(v, i)
		if err != nil {
			return nil, err
		}
		l.moves[i] = m
	}
	return l.moves, nil
}

func (l *Levelwise) phaseDone(v *sim.View) bool {
	for i := 0; i < l.k; i++ {
		p := &l.plans[i]
		if len(p.down) > 0 || p.explore != tree.Nil || p.up > 0 || v.Pos(i) != tree.Root {
			return false
		}
	}
	return true
}

// live sorts in the nodes bucket d gained since its last use, moves its
// cursor past the closed prefix, and returns the rest: the bucket's open
// nodes in id order, with any closed since among them.
func (l *Levelwise) live(d int) []tree.NodeID {
	b := &l.buckets[d]
	if len(b.nodes) > b.sorted {
		slices.Sort(b.nodes[b.closed:])
		b.sorted = len(b.nodes)
	}
	for b.closed < len(b.nodes) && l.count[b.nodes[b.closed]] == 0 {
		b.closed++
	}
	return b.nodes[b.closed:]
}

// startPhase assigns up to k dangling-edge slots, shallowest parents first
// and lowest node id first within a depth.
func (l *Levelwise) startPhase(v *sim.View) {
	robot := 0
	for d := l.lo; d < len(l.buckets) && robot < l.k; d++ {
		live := l.live(d)
		if len(live) == 0 && d == l.lo {
			// A node of depth d is discovered only from an open node of
			// depth d−1, and the buckets below lo hold none, so bucket d
			// never refills.
			l.lo++
		}
		for _, node := range live {
			for slot := int32(0); slot < l.count[node] && robot < l.k; slot++ {
				p := &l.plans[robot]
				p.explore = node
				p.up = v.DepthOf(node) + 1
				p.down = p.down[:0]
				for u := node; u != tree.Root; u = v.Parent(u) {
					p.down = append(p.down, u)
				}
				robot++
			}
			if robot == l.k {
				break
			}
		}
	}
	if robot > 0 {
		l.Phases++
	}
}

func (l *Levelwise) step(v *sim.View, i int) (sim.Move, error) {
	p := &l.plans[i]
	switch {
	case len(p.down) > 0:
		next := p.down[len(p.down)-1]
		p.down = p.down[:len(p.down)-1]
		if v.Parent(next) != v.Pos(i) {
			return sim.Move{}, fmt.Errorf("levelwise: robot %d: bad path node %d from %d", i, next, v.Pos(i))
		}
		return sim.Move{Kind: sim.Down, Child: next}, nil
	case p.explore != tree.Nil:
		node := p.explore
		p.explore = tree.Nil
		tk, ok := v.ReserveDangling(node)
		if !ok {
			// The slot disappeared (phase accounting bug) — recover by
			// heading home; correctness is preserved, the edge stays for a
			// later phase.
			if v.DepthOf(node) == 0 {
				p.up = 0
				return sim.Move{Kind: sim.Stay}, nil
			}
			p.up = v.DepthOf(node) - 1
			return sim.Move{Kind: sim.Up}, nil
		}
		// The robot descends one level through the dangling edge; p.up was
		// set to depth+1 at assignment, exactly the trip home from there.
		return sim.Move{Kind: sim.Explore, Ticket: tk}, nil
	case p.up > 0:
		p.up--
		return sim.Move{Kind: sim.Up}, nil
	default:
		return sim.Move{Kind: sim.Stay}, nil
	}
}
