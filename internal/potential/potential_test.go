package potential

import (
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runPF(t *testing.T, tr *tree.Tree, k int) sim.Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunChecked(w, New(k), 0)
	if err != nil {
		t.Fatalf("Potential(%s, k=%d): %v", tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("Potential(%s, k=%d): not fully explored (%d/%d)", tr, k, w.ExploredCount(), tr.N())
	}
	if !res.AllAtRoot {
		t.Fatalf("Potential(%s, k=%d): robots not home", tr, k)
	}
	return res
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(88))
	return []*tree.Tree{
		tree.Path(1), tree.Path(2), tree.Path(40), tree.Star(30),
		tree.KAry(2, 6), tree.KAry(4, 3), tree.Spider(6, 8),
		tree.Comb(10, 4), tree.Broom(12, 8),
		tree.Random(400, 12, rng), tree.RandomBinary(250, rng),
		tree.UnevenPaths(8, 24),
	}
}

func TestPotentialCorrectness(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 5, 16, 64} {
			runPF(t, tr, k)
		}
	}
}

func TestPotentialSingleRobotIsDFS(t *testing.T) {
	// With one robot the target is always the DFS-first open edge, so the
	// walk is an exact depth-first traversal: 2(n−1) edge moves.
	for _, tr := range testTrees(t) {
		res := runPF(t, tr, 1)
		if want := 2 * (tr.N() - 1); res.Rounds != want {
			t.Errorf("%s: Potential k=1 rounds = %d, want %d (DFS)", tr, res.Rounds, want)
		}
	}
}

func TestPotentialEveryEdgeExploredOnce(t *testing.T) {
	for _, tr := range testTrees(t) {
		res := runPF(t, tr, 8)
		if res.EdgeExplorations != tr.N()-1 {
			t.Errorf("%s: %d explorations, want %d", tr, res.EdgeExplorations, tr.N()-1)
		}
	}
}

func TestPotentialStarManyRobots(t *testing.T) {
	// k ≥ n−1 robots on a star: every robot gets its own slot at the root,
	// so two rounds suffice (out and back).
	res := runPF(t, tree.Star(17), 16)
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
}

func TestPotentialDeterministic(t *testing.T) {
	tr := tree.Random(500, 15, rand.New(rand.NewSource(5)))
	a := runPF(t, tr, 8)
	b := runPF(t, tr, 8)
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Errorf("runs differ: %d/%d rounds", a.Rounds, b.Rounds)
	}
}

func TestPotentialWithinBound(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 5, 16, 64} {
			res := runPF(t, tr, k)
			if b := Bound(tr.N(), tr.Depth(), k); float64(res.Rounds) > b {
				t.Errorf("%s k=%d: rounds %d exceed Bound %.1f", tr, k, res.Rounds, b)
			}
		}
	}
}

func TestPotentialNoLogFactorOnUnevenPaths(t *testing.T) {
	// The CTE-hard family. The even DFS-order split reassigns freed robots
	// to the surviving long paths every round, so the run stays within the
	// 2n/k + O(D²) envelope instead of CTE's Dk/log k overhead.
	k := 8
	tr := tree.UnevenPaths(k, 60)
	res := runPF(t, tr, k)
	if b := Bound(tr.N(), tr.Depth(), k); float64(res.Rounds) > b {
		t.Errorf("uneven paths: rounds %d exceed Bound %.1f", res.Rounds, b)
	}
}

func TestPotentialResetMatchesFresh(t *testing.T) {
	tr := tree.Random(600, 14, rand.New(rand.NewSource(9)))
	alg := New(16)
	w, err := sim.NewWorld(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(w, alg, 0); err != nil {
		t.Fatal(err)
	}
	alg.Reset(8)
	w2, err := sim.NewWorld(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := sim.Run(w2, alg, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := runPF(t, tr, 8)
	if reused.Rounds != fresh.Rounds || reused.Moves != fresh.Moves ||
		reused.EdgeExplorations != fresh.EdgeExplorations {
		t.Errorf("reset run %+v differs from fresh run %+v", reused, fresh)
	}
}
