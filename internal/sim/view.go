package sim

import "bfdn/internal/tree"

// View is the online interface handed to exploration algorithms. It exposes
// only information that the paper's model makes available in the complete
// communication setting: the partially explored tree (explored nodes, their
// explored children, dangling-edge counts) and the robot positions.
//
// All node arguments must be explored nodes; passing an unexplored NodeID is
// a programming error (algorithms can only obtain unexplored ids by breaking
// the abstraction).
type View struct {
	w *World
}

// K reports the number of robots.
func (v *View) K() int { return v.w.k }

// Round reports the current round index.
func (v *View) Round() int { return v.w.round }

// Pos reports the position of robot i.
func (v *View) Pos(i int) tree.NodeID { return v.w.pos[i] }

// Positions appends all robot positions to dst and returns it.
func (v *View) Positions(dst []tree.NodeID) []tree.NodeID {
	return append(dst, v.w.pos...)
}

// Explored reports whether node id has been explored.
func (v *View) Explored(id tree.NodeID) bool {
	return id >= 0 && int(id) < len(v.w.dangling) && v.w.dangling[id] >= 0
}

// ExploredCount reports the number of explored nodes.
func (v *View) ExploredCount() int { return v.w.exploredCount }

// Parent returns the parent of an explored node (Nil for the root).
func (v *View) Parent(id tree.NodeID) tree.NodeID { return v.w.t.Parent(id) }

// DepthOf returns δ(id) for an explored node.
func (v *View) DepthOf(id tree.NodeID) int { return v.w.t.DepthOf(id) }

// ExploredChildren returns the explored children of an explored node, in the
// order they were discovered. The slice is shared; do not modify.
func (v *View) ExploredChildren(id tree.NodeID) []tree.NodeID {
	children := v.w.t.Children(id)
	d := v.w.dangling[id]
	if d <= 0 {
		// Fully explored (or, defensively, unexplored: no explored children).
		if d < 0 {
			return children[:0]
		}
		return children
	}
	return children[:len(children)-int(d)]
}

// DanglingAt reports the number of dangling edges at an explored node.
func (v *View) DanglingAt(id tree.NodeID) int { return v.w.danglingAt(id) }

// UnreservedDanglingAt reports the number of dangling edges at id that have
// not been reserved in the current round ("dangling and unselected" in the
// paper's DN procedure).
func (v *View) UnreservedDanglingAt(id tree.NodeID) int {
	return v.w.danglingAt(id) - v.w.reservedThisRound(id)
}

// ReserveDangling reserves one dangling edge at id for traversal this round.
// It returns false if id has no unreserved dangling edge.
func (v *View) ReserveDangling(id tree.NodeID) (Ticket, bool) {
	return v.w.reserveDangling(id)
}

// OpenSlots reports m, the number of dangling edges of the explored tree:
// the open slots of the Potential Function Method's DFS-slot rule
// (DESIGN.md S28).
func (v *View) OpenSlots() int { return v.w.openSlots().Total() }

// OpenSlot returns the explored node holding open slot s. The slots
// enumerate the dangling edges in depth-first order of the explored tree,
// a node's explored child subtrees in port order before its own dangling
// edges, so a node holds as many consecutive slots as it has dangling
// edges. It fails when s is outside [0, OpenSlots()). O(log n).
func (v *View) OpenSlot(s int) (tree.NodeID, error) {
	r, err := v.w.openSlots().Select(s)
	if err != nil {
		return tree.Nil, err
	}
	return v.w.t.AtRank(r), nil
}

// Toward returns the neighbour of explored node from one edge closer to
// explored node to ≠ from: the child of from that is an ancestor of to,
// or from's parent when to is not below from. O(log Δ).
func (v *View) Toward(from, to tree.NodeID) tree.NodeID { return v.w.t.NextHop(from, to) }

// HasDanglingAnywhere reports whether the partially explored tree still has a
// dangling edge. O(1) via counters: total explored nodes vs hidden size is
// not available online, so this is maintained as explored-edge accounting.
func (v *View) HasDanglingAnywhere() bool {
	// A node is "finished" when all its children are explored. The number of
	// dangling edges overall is sum over explored v of danglingAt(v); we track
	// it via exploredCount: every explored node except the root consumed one
	// dangling edge, and every explored node contributed NumChildren dangling
	// edges. Rather than exposing hidden child counts, note that the total
	// number of dangling edges is (edges discovered) − (edges fully explored),
	// which equals sum of danglingAt over explored nodes. We keep it simple
	// and exact with the counter below.
	return v.w.totalDangling() > 0
}

func (w *World) totalDangling() int {
	// Maintained implicitly: each explored node v has NumChildren(v) edges of
	// which nextKid[v] are explored. Summing incrementally would need a
	// counter; derive it from exploredCount instead:
	//   discovered edges  = Σ_{explored v} NumChildren(v)
	//   explored children = exploredCount − 1
	// so dangling = discovered − (exploredCount − 1). We track discovered in
	// metrics as it only changes on explore events.
	return w.metrics.DiscoveredEdges - (w.exploredCount - 1)
}
