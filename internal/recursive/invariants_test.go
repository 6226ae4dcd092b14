package recursive

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// TestBFDNLOpenNodeCoverageInvariant checks the central anchor-based
// invariant of Appendix B on every round of a BFDN_ℓ run: every open node
// (explored, adjacent to a dangling edge) lies in the subtree of some
// active robot's anchor, as reported by ActiveAnchors — the certificate the
// divide-depth functor relies on when it restricts the next iteration to
// the interrupted instances' subtrees.
func TestBFDNLOpenNodeCoverageInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		tr  *tree.Tree
		k   int
		ell int
	}{
		{tree.Random(150, 12, rng), 4, 2},
		{tree.Random(150, 40, rng), 9, 2},
		{tree.Spider(5, 20), 8, 3},
		{tree.Comb(12, 4), 4, 2},
	} {
		w, err := sim.NewWorld(tc.tr, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := NewBFDNL(tc.k, tc.ell)
		if err != nil {
			t.Fatal(err)
		}
		v := w.View()
		res, err := sim.RunContext(context.Background(), w, alg, 0, nil, func(_ []sim.Move, _ []sim.ExploreEvent, moved bool) (bool, error) {
			if alg.homing {
				return !moved, nil // nothing open remains during homing
			}
			pairs := alg.top.ActiveAnchors(v, nil)
			for node := tree.NodeID(0); int(node) < tc.tr.N(); node++ {
				if !v.Explored(node) || v.DanglingAt(node) == 0 {
					continue
				}
				covered := false
				for _, p := range pairs {
					if tc.tr.IsAncestor(p.Anchor, node) {
						covered = true
						break
					}
				}
				if !covered {
					return false, fmt.Errorf("round %d: open node %d uncovered by %d active anchors", v.Round(), node, len(pairs))
				}
			}
			return !moved, nil
		})
		if err != nil || !res.FullyExplored {
			t.Fatalf("%s k=%d ℓ=%d: explored=%v: %v", tc.tr, tc.k, tc.ell, res.FullyExplored, err)
		}
	}
}

// TestBFDNLParallelPositionsInvariant checks the Parallel Positions
// invariant of Appendix B: for any two robots, every strict ancestor of
// their positions' LCA is closed (has no dangling edge).
func TestBFDNLParallelPositionsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := tree.Random(180, 15, rng)
	k, ell := 4, 2
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewBFDNL(k, ell)
	if err != nil {
		t.Fatal(err)
	}
	v := w.View()
	res, err := sim.RunContext(context.Background(), w, alg, 0, nil, func(_ []sim.Move, _ []sim.ExploreEvent, moved bool) (bool, error) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				lca := tr.LCA(v.Pos(i), v.Pos(j))
				for a := tr.Parent(lca); a != tree.Nil; a = tr.Parent(a) {
					if v.DanglingAt(a) > 0 {
						return false, fmt.Errorf("round %d: robots %d,%d: open strict ancestor %d of their LCA %d",
							v.Round(), i, j, a, lca)
					}
				}
			}
		}
		return !moved, nil
	})
	if err != nil || !res.FullyExplored {
		t.Fatalf("explored=%v: %v", res.FullyExplored, err)
	}
}
