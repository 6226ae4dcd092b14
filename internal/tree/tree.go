// Package tree provides the rooted-tree substrate used throughout the BFDN
// reproduction: an immutable rooted tree with port-numbered adjacency,
// generators for the tree families the paper's analysis distinguishes, and
// small utilities (LCA, root paths, encodings) shared by the simulator and
// the algorithms.
//
// Conventions follow the paper (Cosson, Massoulié, Viennot 2023): trees are
// rooted, δ(v) is the distance of v to the root, D = max_v δ(v) is the depth,
// and Δ is the maximum degree. At every node other than the root, port 0
// leads to the parent (§4.1 of the paper); ports 1..deg-1 lead to children in
// construction order. At the root, ports 0..deg-1 all lead to children.
package tree

import (
	"errors"
	"fmt"
	"sync"
)

// NodeID identifies a node of a Tree. IDs are dense: a tree with n nodes uses
// IDs 0..n-1, and the root is always node 0.
type NodeID int32

// Nil is the sentinel "no node" value (e.g. the parent of the root).
const Nil NodeID = -1

// Root is the NodeID of the root of every Tree.
const Root NodeID = 0

// Tree is an immutable rooted tree in CSR (compressed-sparse-row) layout:
// the children of every node live in one flat childArr slice, delimited by
// the childOff offsets, so Children(v) is a subslice of a single contiguous
// array and the whole structure costs O(1) slice headers regardless of n.
// Construct one with a Builder or FromParents; the zero value is not usable.
type Tree struct {
	parent []NodeID
	// childArr holds the children of node v (in construction order) at
	// childArr[childOff[v]:childOff[v+1]]; len(childArr) == n-1.
	childArr []NodeID
	childOff []int32 // len n+1, non-decreasing, childOff[0] == 0
	// childPos[v] is the index of v within its parent's child range (0 for
	// the root), making PortToward an O(1) lookup.
	childPos []int32
	depth    []int32
	maxDepth int
	maxDeg   int

	// The post-order of the tree, children in port order, is computed on
	// first use (ranked) and then read without locking: a tree that never
	// asks for it stores nothing. span[v] is T(v)'s interval of ranks and
	// atRank[r] the node of rank r.
	rankOnce sync.Once
	span     []span
	atRank   []NodeID
}

// span is the post-order interval of a subtree: its nodes hold the ranks
// first..last, and its root, which follows its descendants, holds last.
type span struct{ first, last int32 }

// Builder incrementally constructs a Tree. The zero value is a builder whose
// tree already contains the root. The builder stores only the parent and
// depth arrays; Build compacts the child adjacency into the tree's CSR
// layout in two counting passes, so construction performs O(1) slice
// allocations however many nodes are added.
type Builder struct {
	parent []NodeID
	depth  []int32
}

// NewBuilder returns a Builder holding a single root node.
func NewBuilder() *Builder {
	return &Builder{
		parent: []NodeID{Nil},
		depth:  []int32{0},
	}
}

// NewBuilderCap is NewBuilder with capacity for n nodes pre-reserved, so
// generators that know their target size ahead of time avoid every
// append-doubling reallocation.
func NewBuilderCap(n int) *Builder {
	if n < 1 {
		n = 1
	}
	b := &Builder{
		parent: make([]NodeID, 1, n),
		depth:  make([]int32, 1, n),
	}
	b.parent[0] = Nil
	return b
}

// Len reports the number of nodes added so far (including the root).
func (b *Builder) Len() int { return len(b.parent) }

// Depth reports the depth of node v in the tree under construction.
func (b *Builder) Depth(v NodeID) int { return int(b.depth[v]) }

// AddChild appends a new child to parent and returns its NodeID.
func (b *Builder) AddChild(parent NodeID) NodeID {
	id := NodeID(len(b.parent))
	b.parent = append(b.parent, parent)
	b.depth = append(b.depth, b.depth[parent]+1)
	return id
}

// AddPath appends a path of length steps below parent and returns the NodeID
// of the final node. AddPath(v, 0) returns v.
func (b *Builder) AddPath(parent NodeID, steps int) NodeID {
	v := parent
	for i := 0; i < steps; i++ {
		v = b.AddChild(v)
	}
	return v
}

// Build freezes the builder into an immutable Tree. The builder must not be
// used afterwards.
//
// The child adjacency is compacted in two passes (count, then fill): since
// node ids are assigned in AddChild order, filling by ascending child id
// reproduces each node's children in exactly the order they were added.
func (b *Builder) Build() *Tree {
	n := len(b.parent)
	t := &Tree{parent: b.parent, depth: b.depth}
	t.childOff = make([]int32, n+1)
	for _, p := range b.parent[1:] {
		t.childOff[p+1]++
	}
	for v := 0; v < n; v++ {
		deg := int(t.childOff[v+1])
		if NodeID(v) != Root {
			deg++ // edge to parent
		}
		if deg > t.maxDeg {
			t.maxDeg = deg
		}
		t.childOff[v+1] += t.childOff[v]
		if int(t.depth[v]) > t.maxDepth {
			t.maxDepth = int(t.depth[v])
		}
	}
	t.childArr = make([]NodeID, n-1)
	t.childPos = make([]int32, n)
	cur := make([]int32, n)
	copy(cur, t.childOff[:n])
	for v := 1; v < n; v++ {
		p := b.parent[v]
		i := cur[p]
		cur[p]++
		t.childArr[i] = NodeID(v)
		t.childPos[v] = i - t.childOff[p]
	}
	b.parent, b.depth = nil, nil
	return t
}

// FromParents builds a Tree from a parent array: parents[0] must be -1 (the
// root) and parents[v] must be a valid node id < v for all other v, i.e. the
// array must be topologically ordered. Children keep index order.
func FromParents(parents []int32) (*Tree, error) {
	if len(parents) == 0 {
		return nil, errors.New("tree: empty parent array")
	}
	if parents[0] != int32(Nil) {
		return nil, fmt.Errorf("tree: parents[0] = %d, want -1", parents[0])
	}
	b := NewBuilderCap(len(parents))
	for v := 1; v < len(parents); v++ {
		p := parents[v]
		if p < 0 || int(p) >= v {
			return nil, fmt.Errorf("tree: parents[%d] = %d out of range [0,%d)", v, p, v)
		}
		b.AddChild(NodeID(p))
	}
	return b.Build(), nil
}

// N reports the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Depth reports the tree depth D = max_v δ(v).
func (t *Tree) Depth() int { return t.maxDepth }

// MaxDegree reports Δ, the maximum degree over all nodes (counting the parent
// edge for non-root nodes).
func (t *Tree) MaxDegree() int { return t.maxDeg }

// Parent returns the parent of v, or Nil for the root.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }

// Children returns the children of v in port order, as a subslice of the
// tree's contiguous CSR child array. The returned slice is shared with the
// tree and must not be modified.
func (t *Tree) Children(v NodeID) []NodeID {
	return t.childArr[t.childOff[v]:t.childOff[v+1]]
}

// NumChildren reports the number of children of v.
func (t *Tree) NumChildren(v NodeID) int {
	return int(t.childOff[v+1] - t.childOff[v])
}

// DepthOf reports δ(v), the distance from v to the root.
func (t *Tree) DepthOf(v NodeID) int { return int(t.depth[v]) }

// Degree reports the degree of v (children plus the parent edge, if any).
func (t *Tree) Degree(v NodeID) int {
	d := t.NumChildren(v)
	if v != Root {
		d++
	}
	return d
}

// PortToward returns, at node v, the port number whose edge leads to the
// neighbour u. Ports follow the paper's §4.1 convention: at a non-root node
// port 0 leads to the parent and port i (i ≥ 1) to the i-th child; at the
// root port i leads to the i-th child. It returns -1 if u is not adjacent
// to v. The lookup is O(1): a child's port is its position in the parent's
// contiguous CSR child range, recorded at construction time.
func (t *Tree) PortToward(v, u NodeID) int {
	if v != Root && t.parent[v] == u {
		return 0
	}
	if u <= Root || int(u) >= len(t.parent) || t.parent[u] != v {
		return -1
	}
	if v == Root {
		return int(t.childPos[u])
	}
	return int(t.childPos[u]) + 1
}

// NeighborAtPort returns the neighbour of v reached through port p, or Nil if
// the port does not exist.
func (t *Tree) NeighborAtPort(v NodeID, p int) NodeID {
	if v != Root {
		if p == 0 {
			return t.parent[v]
		}
		p--
	}
	if p < 0 || p >= t.NumChildren(v) {
		return Nil
	}
	return t.childArr[int(t.childOff[v])+p]
}

// LCA returns the lowest common ancestor of u and v.
func (t *Tree) LCA(u, v NodeID) NodeID {
	for t.depth[u] > t.depth[v] {
		u = t.parent[u]
	}
	for t.depth[v] > t.depth[u] {
		v = t.parent[v]
	}
	for u != v {
		u, v = t.parent[u], t.parent[v]
	}
	return u
}

// IsAncestor reports whether a is an ancestor of v (or equals v): whether
// v's post-order rank falls in T(a)'s interval. O(1).
func (t *Tree) IsAncestor(a, v NodeID) bool {
	s := t.ranked()
	r := s[v].last
	return s[a].first <= r && r <= s[a].last
}

// Rank returns v's position in the post-order of t, children visited in
// port order. A node follows its subtree in post-order, so the ranks of
// T(v) form the interval that ends at v's own.
func (t *Tree) Rank(v NodeID) int { return int(t.ranked()[v].last) }

// AtRank returns the node of post-order rank r, the inverse of Rank.
func (t *Tree) AtRank(r int) NodeID {
	t.ranked()
	return t.atRank[r]
}

// NextHop returns the neighbour of from one edge closer to to ≠ from: the
// child of from whose subtree holds to, found by binary search over the
// children's ranks in O(log Δ), or from's parent when to is not below
// from.
func (t *Tree) NextHop(from, to NodeID) NodeID {
	s := t.ranked()
	r := s[to].last
	if r < s[from].first || r >= s[from].last {
		return t.parent[from]
	}
	// The children's intervals tile T(from) minus from in port order, so
	// the first child whose rank reaches r holds to.
	kids := t.Children(from)
	lo, hi := 0, len(kids)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[kids[m]].last < r {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return kids[lo]
}

// ranked returns the post-order intervals, computing them on the first
// call.
func (t *Tree) ranked() []span {
	t.rankOnce.Do(t.rank)
	return t.span
}

// rank lays out the post-order in two passes over the ids, which are
// topologically ordered (a parent's id is below its children's): a reverse
// pass sums subtree sizes into span[v].last, and a forward pass hands each
// child the ranks that follow its earlier siblings', then turns the size
// into v's own rank.
func (t *Tree) rank() {
	n := len(t.parent)
	s := make([]span, n)
	for v := n - 1; v >= 0; v-- {
		s[v].last++
		if v > 0 {
			s[t.parent[v]].last += s[v].last
		}
	}
	t.atRank = make([]NodeID, n)
	for v := 0; v < n; v++ {
		next := s[v].first
		for _, c := range t.Children(NodeID(v)) {
			s[c].first = next
			next += s[c].last
		}
		s[v].last += s[v].first - 1
		t.atRank[s[v].last] = NodeID(v)
	}
	t.span = s
}

// Parents returns a copy of the parent array (parents[0] == -1), the inverse
// of FromParents.
func (t *Tree) Parents() []int32 {
	out := make([]int32, len(t.parent))
	for i, p := range t.parent {
		out[i] = int32(p)
	}
	return out
}

// String returns a short human-readable summary.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{n=%d D=%d Δ=%d}", t.N(), t.Depth(), t.MaxDegree())
}
