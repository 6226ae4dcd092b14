package tree

import (
	"math/rand"
	"testing"
)

// portTowardLinear is the pre-CSR reference implementation of PortToward: an
// O(Δ) scan of v's child list. The property tests below pin the O(1)
// childPos-based lookup to this semantics.
func portTowardLinear(t *Tree, v, u NodeID) int {
	if v != Root && t.Parent(v) == u {
		return 0
	}
	for i, c := range t.Children(v) {
		if c == u {
			if v == Root {
				return i
			}
			return i + 1
		}
	}
	return -1
}

// TestPortTowardMatchesLinearScan compares the O(1) lookup against the linear
// reference on every adjacent pair of a mixed bag of trees, plus a sample of
// non-adjacent and out-of-range pairs.
func TestPortTowardMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trees := []*Tree{
		Path(1), Path(2), Path(17),
		Star(2), Star(40),
		KAry(2, 6), KAry(3, 4),
		Spider(5, 7), Comb(10, 4), Caterpillar(8, 3), Broom(6, 9),
		Random(500, 20, rng), RandomBinary(300, rng), UnevenPaths(16, 30),
	}
	for _, tr := range trees {
		n := tr.N()
		for v := 0; v < n; v++ {
			id := NodeID(v)
			// All true neighbours: parent and every child.
			if id != Root {
				if got, want := tr.PortToward(id, tr.Parent(id)), portTowardLinear(tr, id, tr.Parent(id)); got != want {
					t.Fatalf("%s: PortToward(%d, parent %d) = %d, want %d", tr, id, tr.Parent(id), got, want)
				}
			}
			for _, c := range tr.Children(id) {
				got, want := tr.PortToward(id, c), portTowardLinear(tr, id, c)
				if got != want {
					t.Fatalf("%s: PortToward(%d, child %d) = %d, want %d", tr, id, c, got, want)
				}
				// The port must round-trip through NeighborAtPort.
				if back := tr.NeighborAtPort(id, got); back != c {
					t.Fatalf("%s: NeighborAtPort(%d, %d) = %d, want %d", tr, id, got, back, c)
				}
			}
			// Random (mostly non-adjacent) pairs.
			for trial := 0; trial < 4; trial++ {
				u := NodeID(rng.Intn(n))
				if got, want := tr.PortToward(id, u), portTowardLinear(tr, id, u); got != want {
					t.Fatalf("%s: PortToward(%d, %d) = %d, want %d", tr, id, u, got, want)
				}
			}
			// Out-of-range neighbours must report non-adjacent, not panic.
			if got := tr.PortToward(id, Nil); got != -1 {
				t.Fatalf("%s: PortToward(%d, Nil) = %d, want -1", tr, id, got)
			}
			if got := tr.PortToward(id, NodeID(n)); got != -1 {
				t.Fatalf("%s: PortToward(%d, n) = %d, want -1", tr, id, got)
			}
		}
	}
}

// TestBuilderCapBuildsIdenticalTrees checks that the pre-sized builder path
// produces encodings identical to the default builder.
func TestBuilderCapBuildsIdenticalTrees(t *testing.T) {
	build := func(nb func() *Builder) *Tree {
		b := nb()
		v := b.AddChild(Root)
		b.AddChild(Root)
		w := b.AddChild(v)
		b.AddPath(w, 3)
		b.AddChild(v)
		return b.Build()
	}
	plain := build(NewBuilder)
	capped := build(func() *Builder { return NewBuilderCap(9) })
	if Encode(plain) != Encode(capped) {
		t.Fatalf("capped builder differs: %q vs %q", Encode(capped), Encode(plain))
	}
	if err := validate(capped); err != nil {
		t.Fatal(err)
	}
}
