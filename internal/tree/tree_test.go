package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// validate performs internal-consistency checks on t and returns an error
// describing the first violation found, if any.
func validate(t *Tree) error {
	n := len(t.parent)
	if n == 0 {
		return errors.New("tree: no nodes")
	}
	if t.parent[Root] != Nil {
		return errors.New("tree: root has a parent")
	}
	if len(t.childOff) != n+1 || t.childOff[0] != 0 || int(t.childOff[n]) != n-1 || len(t.childArr) != n-1 {
		return fmt.Errorf("tree: CSR offsets inconsistent (n=%d, len(childOff)=%d, len(childArr)=%d)",
			n, len(t.childOff), len(t.childArr))
	}
	seen := make([]bool, n)
	for v := 1; v < n; v++ {
		p := t.parent[v]
		if p < 0 || int(p) >= n {
			return fmt.Errorf("tree: node %d has invalid parent %d", v, p)
		}
		if t.depth[v] != t.depth[p]+1 {
			return fmt.Errorf("tree: node %d depth %d, parent depth %d", v, t.depth[v], t.depth[p])
		}
	}
	for v := 0; v < n; v++ {
		if t.childOff[v] > t.childOff[v+1] {
			return fmt.Errorf("tree: CSR offsets decrease at node %d", v)
		}
		for i, c := range t.Children(NodeID(v)) {
			if c < 0 || int(c) >= n || t.parent[c] != NodeID(v) {
				return fmt.Errorf("tree: child list of %d contains %d whose parent is %d", v, c, t.parent[c])
			}
			if seen[c] {
				return fmt.Errorf("tree: node %d appears in two child lists", c)
			}
			if int(t.childPos[c]) != i {
				return fmt.Errorf("tree: node %d has child position %d, want %d", c, t.childPos[c], i)
			}
			seen[c] = true
		}
	}
	for v := 1; v < n; v++ {
		if !seen[v] {
			return fmt.Errorf("tree: node %d missing from its parent's child list", v)
		}
	}
	return nil
}

// dist is the number of edges on the path between u and v.
func dist(tr *Tree, u, v NodeID) int {
	return tr.DepthOf(u) + tr.DepthOf(v) - 2*tr.DepthOf(tr.LCA(u, v))
}

// subtreeSize counts the nodes of T(v), v included, by walking the subtree.
func subtreeSize(tr *Tree, v NodeID) int {
	count := 0
	stack := []NodeID{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		stack = append(stack, tr.Children(u)...)
	}
	return count
}

func TestBuilderSingleNode(t *testing.T) {
	tr := NewBuilder().Build()
	if tr.N() != 1 {
		t.Fatalf("N = %d, want 1", tr.N())
	}
	if tr.Depth() != 0 {
		t.Errorf("Depth = %d, want 0", tr.Depth())
	}
	if tr.MaxDegree() != 0 {
		t.Errorf("MaxDegree = %d, want 0", tr.MaxDegree())
	}
	if tr.Parent(Root) != Nil {
		t.Errorf("Parent(root) = %d, want Nil", tr.Parent(Root))
	}
	if err := validate(tr); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBuilderAddChild(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddChild(Root)
	c2 := b.AddChild(Root)
	g1 := b.AddChild(c1)
	tr := b.Build()

	if tr.N() != 4 {
		t.Fatalf("N = %d, want 4", tr.N())
	}
	if got := tr.Parent(g1); got != c1 {
		t.Errorf("Parent(g1) = %d, want %d", got, c1)
	}
	if got := tr.DepthOf(g1); got != 2 {
		t.Errorf("DepthOf(g1) = %d, want 2", got)
	}
	if got := tr.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	kids := tr.Children(Root)
	if len(kids) != 2 || kids[0] != c1 || kids[1] != c2 {
		t.Errorf("Children(root) = %v, want [%d %d]", kids, c1, c2)
	}
	// Root has 2 children (deg 2); c1 has parent + 1 child (deg 2).
	if got := tr.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
	if err := validate(tr); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestAddPath(t *testing.T) {
	b := NewBuilder()
	end := b.AddPath(Root, 5)
	tr := b.Build()
	if tr.N() != 6 {
		t.Fatalf("N = %d, want 6", tr.N())
	}
	if got := tr.DepthOf(end); got != 5 {
		t.Errorf("DepthOf(end) = %d, want 5", got)
	}
	if got := b2int(end); got != 5 {
		t.Errorf("end id = %d, want 5", got)
	}
}

func b2int(v NodeID) int { return int(v) }

func TestFromParentsValid(t *testing.T) {
	tr, err := FromParents([]int32{-1, 0, 0, 1, 1, 2})
	if err != nil {
		t.Fatalf("FromParents: %v", err)
	}
	if tr.N() != 6 || tr.Depth() != 2 {
		t.Errorf("got n=%d D=%d, want n=6 D=2", tr.N(), tr.Depth())
	}
	if err := validate(tr); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestFromParentsErrors(t *testing.T) {
	cases := []struct {
		name    string
		parents []int32
	}{
		{"empty", nil},
		{"root has parent", []int32{0, 0}},
		{"forward reference", []int32{-1, 2, 0}},
		{"self parent", []int32{-1, 1}},
		{"negative parent", []int32{-1, -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromParents(tc.parents); err == nil {
				t.Errorf("FromParents(%v) succeeded, want error", tc.parents)
			}
		})
	}
}

func TestPortNumbering(t *testing.T) {
	// root with children a, b; a with child c.
	b := NewBuilder()
	a := b.AddChild(Root)
	bb := b.AddChild(Root)
	c := b.AddChild(a)
	tr := b.Build()

	// Root ports: 0 -> a, 1 -> b.
	if got := tr.PortToward(Root, a); got != 0 {
		t.Errorf("PortToward(root,a) = %d, want 0", got)
	}
	if got := tr.PortToward(Root, bb); got != 1 {
		t.Errorf("PortToward(root,b) = %d, want 1", got)
	}
	// a ports: 0 -> parent(root), 1 -> c.
	if got := tr.PortToward(a, Root); got != 0 {
		t.Errorf("PortToward(a,root) = %d, want 0", got)
	}
	if got := tr.PortToward(a, c); got != 1 {
		t.Errorf("PortToward(a,c) = %d, want 1", got)
	}
	if got := tr.PortToward(a, bb); got != -1 {
		t.Errorf("PortToward(a,b) = %d, want -1 (not adjacent)", got)
	}
	// NeighborAtPort is the inverse.
	if got := tr.NeighborAtPort(a, 0); got != Root {
		t.Errorf("NeighborAtPort(a,0) = %d, want root", got)
	}
	if got := tr.NeighborAtPort(a, 1); got != c {
		t.Errorf("NeighborAtPort(a,1) = %d, want %d", got, c)
	}
	if got := tr.NeighborAtPort(a, 2); got != Nil {
		t.Errorf("NeighborAtPort(a,2) = %d, want Nil", got)
	}
	if got := tr.NeighborAtPort(Root, 1); got != bb {
		t.Errorf("NeighborAtPort(root,1) = %d, want %d", got, bb)
	}
}

func TestPortRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := Random(300, 12, rng)
	for v := NodeID(0); int(v) < tr.N(); v++ {
		for p := 0; p < tr.Degree(v); p++ {
			u := tr.NeighborAtPort(v, p)
			if u == Nil {
				t.Fatalf("node %d port %d: Nil neighbour within degree", v, p)
			}
			if got := tr.PortToward(v, u); got != p {
				t.Fatalf("node %d: PortToward(NeighborAtPort(%d)) = %d", v, p, got)
			}
		}
	}
}

func TestLCAAndDist(t *testing.T) {
	// Balanced binary tree of depth 3.
	tr := KAry(2, 3)
	// Node ids: root=0, depth1 = 1,2; depth2 = 3..6; depth3 = 7..14.
	cases := []struct {
		u, v, lca NodeID
		dist      int
	}{
		{0, 0, 0, 0},
		{7, 8, 3, 2},
		{7, 14, 0, 6},
		{3, 7, 3, 1},
		{1, 2, 0, 2},
		{7, 10, 1, 4},
	}
	for _, tc := range cases {
		if got := tr.LCA(tc.u, tc.v); got != tc.lca {
			t.Errorf("LCA(%d,%d) = %d, want %d", tc.u, tc.v, got, tc.lca)
		}
		if got := dist(tr, tc.u, tc.v); got != tc.dist {
			t.Errorf("dist(%d,%d) = %d, want %d", tc.u, tc.v, got, tc.dist)
		}
		if got := dist(tr, tc.v, tc.u); got != tc.dist {
			t.Errorf("dist(%d,%d) = %d, want %d (symmetry)", tc.v, tc.u, got, tc.dist)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	tr := KAry(2, 3)
	if !tr.IsAncestor(Root, 14) {
		t.Error("root should be ancestor of every node")
	}
	if !tr.IsAncestor(7, 7) {
		t.Error("a node is its own ancestor")
	}
	if tr.IsAncestor(7, 3) {
		t.Error("descendant is not an ancestor")
	}
	if tr.IsAncestor(1, 2) {
		t.Error("siblings are not ancestors")
	}
}

func TestSubtreeSize(t *testing.T) {
	tr := KAry(2, 3)
	if got := subtreeSize(tr, Root); got != 15 {
		t.Errorf("subtreeSize(root) = %d, want 15", got)
	}
	if got := subtreeSize(tr, 1); got != 7 {
		t.Errorf("subtreeSize(1) = %d, want 7", got)
	}
	if got := subtreeSize(tr, 14); got != 1 {
		t.Errorf("subtreeSize(leaf) = %d, want 1", got)
	}
}

func TestStats(t *testing.T) {
	tr := Star(10)
	leaves, depths := 0, 0
	for v := 0; v < tr.N(); v++ {
		if tr.NumChildren(NodeID(v)) == 0 {
			leaves++
		}
		depths += tr.DepthOf(NodeID(v))
	}
	if tr.N() != 10 || tr.Depth() != 1 || tr.MaxDegree() != 9 || leaves != 9 {
		t.Errorf("Star: n=%d D=%d Δ=%d leaves=%d", tr.N(), tr.Depth(), tr.MaxDegree(), leaves)
	}
	if avg := float64(depths) / float64(tr.N()); avg != 0.9 {
		t.Errorf("average depth = %v, want 0.9", avg)
	}
}

func TestLCARandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := Random(500, 20, rng)
	f := func(a, b uint16) bool {
		u := NodeID(int(a) % tr.N())
		v := NodeID(int(b) % tr.N())
		l := tr.LCA(u, v)
		// The LCA must be an ancestor of both, and the deepest such.
		if !tr.IsAncestor(l, u) || !tr.IsAncestor(l, v) {
			return false
		}
		// No deeper common ancestor: unless l is u or v, the paths from l
		// to u and to v leave l through different children.
		return l == u || l == v || tr.NextHop(l, u) != tr.NextHop(l, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestParentsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := Random(200, 9, rng)
	clone, err := FromParents(orig.Parents())
	if err != nil {
		t.Fatalf("FromParents: %v", err)
	}
	if Encode(orig) != Encode(clone) {
		t.Error("Parents/FromParents round trip changed the tree")
	}
}
