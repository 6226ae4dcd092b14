package writeread

import "bfdn/internal/tree"

// planner is the central coordinator at the root (Algorithm 2 of the paper).
// It keeps the working depth d, the list A of anchors at depth d, the set R
// of anchors from which a robot has returned, the children A′ of nodes of A,
// and the subset R′ of A′ known to be fully explored. All of its knowledge
// comes from the memory of returning robots.
//
// Nodes are keyed by tree.NodeID purely as an address: the planner also
// stores, for every known node, the port path from the root — which is what
// a NodeID denotes in this model — and only ever hands robots port paths.
type planner struct {
	d int

	anchors  []tree.NodeID         // A, in insertion order
	inA      map[tree.NodeID]bool  // membership in A
	returned map[tree.NodeID]bool  // R
	children map[tree.NodeID]bool  // A′
	finished map[tree.NodeID]bool  // R′ (and the stale-info "fully explored" marks)
	loads    map[tree.NodeID]int   // robots currently assigned per anchor
	paths    map[tree.NodeID][]int // port path from the root
	resolve  func(tree.NodeID, int) tree.NodeID

	done  bool
	debug func(string, ...interface{})
}

func newPlanner() *planner {
	p := &planner{
		inA:      make(map[tree.NodeID]bool),
		returned: make(map[tree.NodeID]bool),
		children: make(map[tree.NodeID]bool),
		finished: make(map[tree.NodeID]bool),
		loads:    make(map[tree.NodeID]int),
		paths:    make(map[tree.NodeID][]int),
	}
	p.anchors = []tree.NodeID{tree.Root}
	p.inA[tree.Root] = true
	p.paths[tree.Root] = nil
	return p
}

// setResolver injects the address-resolution function (path + port → node
// address); the engine supplies it from the tree topology.
func (p *planner) setResolver(f func(tree.NodeID, int) tree.NodeID) { p.resolve = f }

// downPorts returns the downward port numbers of a node given its bitmap
// length (= its degree): 1..deg−1 for non-root nodes, 0..deg−1 for the root.
func downPorts(node tree.NodeID, deg int) (lo, hi int) {
	if node == tree.Root {
		return 0, deg - 1
	}
	return 1, deg - 1
}

// readReturn ingests the memory of a robot arriving at the root: its anchor
// and the finished-port bitmap it snapshotted when it left the anchor.
func (p *planner) readReturn(anchor tree.NodeID, bits []bool) {
	if p.debug != nil {
		p.debug("readReturn anchor=%d inA=%v bits=%v", anchor, p.inA[anchor], bits)
	}
	p.loads[anchor]--
	if !p.inA[anchor] {
		// Stale return: the robot was anchored at an earlier working depth.
		// Its snapshot is not usable — a "finished" port of a non-anchor
		// node can coexist with a robot still working below (the port's
		// dispatched robot exited while an anchored robot remained), so
		// inferring R from it would orphan subtrees. Only current-depth
		// anchor returns carry sound information.
		return
	}
	p.returned[anchor] = true
	lo, hi := downPorts(anchor, len(bits))
	for j := lo; j <= hi; j++ {
		c := p.resolve(anchor, j)
		if _, known := p.paths[c]; !known {
			p.paths[c] = append(append([]int(nil), p.paths[anchor]...), j)
		}
		p.children[c] = true
		if bits[j] {
			p.finished[c] = true
		}
	}
}

// assign returns the next anchor for a robot at the root: the eligible
// anchor (A\R) of minimum load, advancing the working depth when A\R is
// empty, or ok=false when exploration is complete.
func (p *planner) assign() (anchor tree.NodeID, ports []int, ok bool) {
	if p.done {
		return 0, nil, false
	}
	for {
		best, bestLoad := tree.Nil, int(^uint(0)>>1)
		for _, a := range p.anchors {
			if p.returned[a] {
				continue
			}
			if l := p.loads[a]; l < bestLoad {
				best, bestLoad = a, l
			}
		}
		if best != tree.Nil {
			p.loads[best]++
			if p.debug != nil {
				p.debug("assign -> %d (depth %d)", best, p.d)
			}
			return best, p.paths[best], true
		}
		// A \ R is empty: advance to the unfinished children, or stop.
		next := make([]tree.NodeID, 0, len(p.children))
		for c := range p.children {
			if !p.finished[c] {
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			if p.debug != nil {
				p.debug("advance: no unfinished children at depth %d -> done; children=%v finished=%v", p.d, p.children, p.finished)
			}
			p.done = true
			return 0, nil, false
		}
		// Deterministic order for reproducible runs.
		sortNodeIDs(next)
		if p.debug != nil {
			p.debug("advance depth %d -> %d anchors=%v", p.d, p.d+1, next)
		}
		p.d++
		p.anchors = next
		p.inA = make(map[tree.NodeID]bool, len(next))
		for _, c := range next {
			p.inA[c] = true
		}
		p.returned = make(map[tree.NodeID]bool)
		p.children = make(map[tree.NodeID]bool)
		p.finished = make(map[tree.NodeID]bool)
	}
}

func sortNodeIDs(s []tree.NodeID) {
	// Insertion sort: anchor lists are small (≤ k).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
