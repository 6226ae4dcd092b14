// Package openindex is the index behind BFDN's Reanchor rule (Algorithm 1,
// line 28; DESIGN.md S4): the open nodes — explored nodes adjacent to at
// least one dangling edge — bucketed by depth, each with its anchor load,
// the number of robots anchored there. Sync BFDN (with BFDN_ℓ and
// break-down BFDN on top of it), async BFDN and the graph explorer all run
// on it.
//
// The minimal open depth is non-decreasing over a run — every newly opened
// node is strictly deeper than the node it was discovered from — so the
// index keeps a forward-only depth cursor. Each bucket stores its members
// in a swap-delete slice (O(1) add and close, for the round-robin and
// random policies) and a lazy binary heap of (load, node) entries that is
// validated on pop, for the load-based ones.
package openindex

import (
	"fmt"
	"slices"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

// Index is a depth-bucketed set of open nodes with their anchor loads.
// Node IDs index a dense per-node table, grown on first touch.
type Index struct {
	buckets  []bucket
	minDepth int
	// nodes[v] packs v's bucket position and anchor load into one 8-byte
	// word, so the probes on the absorb and re-anchor paths cost one cache
	// line per node.
	nodes []node
	// sign is +1 for least-loaded ordering, -1 for most-loaded.
	sign int32
}

type bucket struct {
	members []tree.NodeID
	heap    loadHeap
	cursor  int // round-robin position
}

// node is the per-node word: pos is the node's index in its depth bucket's
// members (-1 when the node is not open), load is its anchor load.
type node struct {
	pos  int32
	load int32
}

type loadEntry struct {
	node tree.NodeID
	load int32 // the load times the index's sign
}

// loadHeap is a lazy binary min-heap of (load, node) entries. Its sift-up
// and sift-down make exactly container/heap's comparisons and swaps, so
// entries of equal load pop in the order they always have.
type loadHeap []loadEntry

func (h *loadHeap) push(e loadEntry) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].load >= q[i].load {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *loadHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].load < q[j].load {
			j++
		}
		if q[j].load >= q[i].load {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
}

// New returns an empty index. PickMinLoad picks the least-loaded node, or
// the most-loaded one when mostLoaded is set.
func New(mostLoaded bool) *Index {
	if mostLoaded {
		return &Index{sign: -1}
	}
	return &Index{sign: 1}
}

// Reset empties the index, keeping its storage: a reset index equals a
// fresh one with the same ordering.
func (x *Index) Reset() {
	x.buckets = x.buckets[:0]
	x.minDepth = 0
	x.nodes = x.nodes[:0]
}

func (x *Index) at(v tree.NodeID) node {
	if int(v) >= len(x.nodes) {
		return node{pos: -1}
	}
	return x.nodes[v]
}

// ref returns a pointer to v's entry, growing the table as needed. The
// pointer is invalidated by the next ref on a larger ID.
func (x *Index) ref(v tree.NodeID) *node {
	if n := int(v) + 1; n > len(x.nodes) {
		old := len(x.nodes)
		if n > cap(x.nodes) {
			x.nodes = append(make([]node, 0, max(n, 2*cap(x.nodes))), x.nodes...)
		}
		x.nodes = x.nodes[:n]
		for i := old; i < n; i++ {
			x.nodes[i] = node{pos: -1}
		}
	}
	return &x.nodes[v]
}

// bucket returns the bucket at depth d, adding empty ones up to it; a
// bucket dropped by Reset comes back empty with its storage.
func (x *Index) bucket(d int) *bucket {
	for d >= len(x.buckets) {
		x.buckets = slices.Grow(x.buckets, 1)[:len(x.buckets)+1]
		b := &x.buckets[len(x.buckets)-1]
		b.members, b.heap, b.cursor = b.members[:0], b.heap[:0], 0
	}
	return &x.buckets[d]
}

// AddOpen registers node v at depth d as adjacent to dangling edges. It is
// idempotent: a node can reach it twice when a sync instance is seeded from
// the view in the same round that delivers the node's explore event.
func (x *Index) AddOpen(v tree.NodeID, d int) {
	m := x.ref(v)
	if m.pos >= 0 {
		return
	}
	b := x.bucket(d)
	m.pos = int32(len(b.members))
	b.members = append(b.members, v)
	b.heap.push(loadEntry{node: v, load: x.sign * m.load})
}

// Close removes node v at depth d from the open set; it is a no-op if v is
// not open. v's heap entries go stale and are dropped lazily.
func (x *Index) Close(v tree.NodeID, d int) {
	p := x.at(v).pos
	if p < 0 {
		return
	}
	b := &x.buckets[d]
	last := len(b.members) - 1
	moved := b.members[last]
	b.members[p] = moved
	b.members = b.members[:last]
	if moved != v {
		x.nodes[moved].pos = p
	}
	x.nodes[v].pos = -1
	if b.cursor > int(p) {
		b.cursor--
	}
}

// ChangeLoad adds delta to v's anchor load, pushing a fresh heap entry if
// v is open at depth d.
func (x *Index) ChangeLoad(v tree.NodeID, d, delta int) {
	m := x.ref(v)
	m.load += int32(delta)
	if m.pos >= 0 {
		x.buckets[d].heap.push(loadEntry{node: v, load: x.sign * m.load})
	}
}

// MinOpenDepth advances the depth cursor to the smallest depth with an
// open node and returns it; ok is false if no open node exists at depth ≤
// limit. limit < 0 means unlimited.
func (x *Index) MinOpenDepth(limit int) (d int, ok bool) {
	for x.minDepth < len(x.buckets) && len(x.buckets[x.minDepth].members) == 0 {
		x.minDepth++
	}
	if x.minDepth >= len(x.buckets) || limit >= 0 && x.minDepth > limit {
		return 0, false
	}
	return x.minDepth, true
}

// PickMinLoad returns the least-loaded (most-loaded, per New) open node at
// depth d, dropping stale heap entries on the way. Every open node has a
// live heap entry, so a heap that drains while the bucket has members is a
// broken invariant, reported as an error.
func (x *Index) PickMinLoad(d int) (tree.NodeID, error) {
	b := &x.buckets[d]
	for len(b.heap) > 0 {
		e := b.heap[0]
		if m := x.at(e.node); m.pos >= 0 && e.load == x.sign*m.load {
			return e.node, nil
		}
		b.heap.pop()
	}
	return 0, fmt.Errorf("openindex: invariant violated: depth %d has %d open nodes but an empty heap", d, len(b.members))
}

// PickRoundRobin returns the next open node in rotation at depth d, which
// must have one.
func (x *Index) PickRoundRobin(d int) tree.NodeID {
	b := &x.buckets[d]
	if b.cursor >= len(b.members) {
		b.cursor = 0
	}
	v := b.members[b.cursor]
	b.cursor++
	return v
}

// Members returns the open nodes at depth d (shared; valid until the next
// update).
func (x *Index) Members(d int) []tree.NodeID { return x.buckets[d].members }

// Depths reports the number of depth buckets, one past the deepest depth
// the index has held an open node at.
func (x *Index) Depths() int { return len(x.buckets) }

// Snapshot writes the index verbatim: the depth cursor, the load and
// position columns, then per bucket its member order, its heap's backing
// array (stale entries included) and its round-robin cursor. The heap's
// sift history is what breaks load ties, so it is never rebuilt on
// restore; replaying it byte for byte keeps a resumed run identical to an
// uninterrupted one.
func (x *Index) Snapshot(e *snap.Encoder) {
	e.Int(x.minDepth)
	loads := make([]int32, len(x.nodes))
	pos := make([]int32, len(x.nodes))
	for i, m := range x.nodes {
		loads[i], pos[i] = m.load, m.pos
	}
	e.Int32s(loads)
	e.Int32s(pos)
	e.Int(len(x.buckets))
	for _, b := range x.buckets {
		e.Int(len(b.members))
		for _, v := range b.members {
			e.Int32(int32(v))
		}
		e.Int(len(b.heap))
		for _, le := range b.heap {
			e.Int32(int32(le.node))
			e.Int32(le.load)
		}
		e.Int(b.cursor)
	}
}

// Restore replaces the index with one written by Snapshot into an index of
// the same ordering, reusing its storage. It rejects a snapshot whose
// members and positions disagree, so a corrupt one cannot make a later
// call index out of range.
func (x *Index) Restore(d *snap.Decoder) error {
	x.minDepth = d.Int()
	loads, pos := d.Int32s(), d.Int32s()
	// Snapshots from before the two columns were merged grew them
	// independently; the shorter one is filled with its default.
	x.nodes = x.nodes[:0]
	for i := 0; i < max(len(loads), len(pos)); i++ {
		m := node{pos: -1}
		if i < len(loads) {
			m.load = loads[i]
		}
		if i < len(pos) {
			m.pos = pos[i]
		}
		x.nodes = append(x.nodes, m)
	}
	nb := d.Int()
	if d.Err() != nil || nb < 0 || nb > d.Rest() || x.minDepth < 0 || x.minDepth > nb {
		return fmt.Errorf("openindex: corrupt snapshot: %d buckets, depth cursor %d: %w", nb, x.minDepth, snap.ErrCorrupt)
	}
	x.buckets = x.buckets[:0]
	open := 0
	for i := 0; i < nb; i++ {
		b := x.bucket(i)
		nm := d.Int()
		if d.Err() != nil || nm < 0 || nm > d.Rest() {
			return fmt.Errorf("openindex: corrupt bucket %d: %w", i, snap.ErrCorrupt)
		}
		for j := 0; j < nm; j++ {
			v := tree.NodeID(d.Int32())
			if v < 0 || int(v) >= len(x.nodes) || x.nodes[v].pos != int32(j) {
				return fmt.Errorf("openindex: bucket %d member %d disagrees with its position: %w", i, v, snap.ErrCorrupt)
			}
			b.members = append(b.members, v)
		}
		open += nm
		nh := d.Int()
		if d.Err() != nil || nh < 0 || nh > d.Rest() {
			return fmt.Errorf("openindex: corrupt heap at depth %d: %w", i, snap.ErrCorrupt)
		}
		for j := 0; j < nh; j++ {
			v := tree.NodeID(d.Int32())
			if v < 0 {
				return fmt.Errorf("openindex: negative heap node at depth %d: %w", i, snap.ErrCorrupt)
			}
			b.heap = append(b.heap, loadEntry{node: v, load: d.Int32()})
		}
		if b.cursor = d.Int(); b.cursor < 0 {
			return fmt.Errorf("openindex: negative round-robin cursor at depth %d: %w", i, snap.ErrCorrupt)
		}
	}
	for _, m := range x.nodes {
		if m.pos >= 0 {
			open--
		}
	}
	if open != 0 {
		return fmt.Errorf("openindex: positions name nodes missing from their buckets: %w", snap.ErrCorrupt)
	}
	return d.Err()
}
