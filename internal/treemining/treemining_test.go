package treemining

import (
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runTM(t *testing.T, tr *tree.Tree, k int) sim.Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunChecked(w, New(k), 0)
	if err != nil {
		t.Fatalf("TreeMining(%s, k=%d): %v", tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("TreeMining(%s, k=%d): not fully explored (%d/%d)", tr, k, w.ExploredCount(), tr.N())
	}
	if !res.AllAtRoot {
		t.Fatalf("TreeMining(%s, k=%d): robots not home", tr, k)
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

func TestTreeMiningCorrectness(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 5, 16, 64} {
			runTM(t, tr, k)
		}
	}
}

func TestTreeMiningSingleRobotIsDFS(t *testing.T) {
	// With one robot the proportional split always sends it to the heaviest
	// open child (or a dangling edge), and it only climbs out of a finished
	// subtree: a heaviest-first DFS of exactly 2(n−1) edge traversals.
	for _, tr := range testTrees(t) {
		res := runTM(t, tr, 1)
		if want := 2 * (tr.N() - 1); res.Rounds != want {
			t.Errorf("%s: TreeMining k=1 rounds = %d, want %d (DFS)", tr, res.Rounds, want)
		}
	}
}

func TestTreeMiningEveryEdgeExploredOnce(t *testing.T) {
	for _, tr := range testTrees(t) {
		res := runTM(t, tr, 8)
		if res.EdgeExplorations != tr.N()-1 {
			t.Errorf("%s: %d explorations, want %d", tr, res.EdgeExplorations, tr.N()-1)
		}
	}
}

func TestTreeMiningStarManyRobots(t *testing.T) {
	// k ≥ n−1 robots on a star: two rounds suffice (out and back).
	res := runTM(t, tree.Star(17), 16)
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
}

func TestTreeMiningDeterministic(t *testing.T) {
	tr := tree.Random(500, 15, rand.New(rand.NewSource(5)))
	a := runTM(t, tr, 8)
	b := runTM(t, tr, 8)
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Errorf("runs differ: %d/%d rounds", a.Rounds, b.Rounds)
	}
}

func TestTreeMiningWithinBound(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 5, 16, 64} {
			res := runTM(t, tr, k)
			if b := Bound(tr.N(), tr.Depth(), k); float64(res.Rounds) > b {
				t.Errorf("%s k=%d: rounds %d exceed Bound %.1f", tr, k, res.Rounds, b)
			}
		}
	}
}

func TestTreeMiningProportionalBeatsEvenSplitOnUnevenPaths(t *testing.T) {
	// The CTE-hard family: k paths of very different lengths below the root.
	// The proportional split keeps robot mass on the long paths, so the run
	// must stay within a small factor of the offline optimum max(2n/k, 2D)
	// rather than CTE's Dk/log k blowup.
	k := 8
	tr := tree.UnevenPaths(k, 60)
	res := runTM(t, tr, k)
	opt := 2 * float64(tr.Depth())
	if e := 2*float64(tr.N()-1)/float64(k) + opt; float64(res.Rounds) > 4*e {
		t.Errorf("uneven paths: rounds %d far above 4·(2n/k+2D) = %.1f", res.Rounds, 4*e)
	}
}

func TestTreeMiningResetMatchesFresh(t *testing.T) {
	tr := tree.Random(600, 14, rand.New(rand.NewSource(9)))
	alg := New(16)
	w, err := sim.NewWorld(tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Run(w, alg, 0)
	if err != nil {
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
	fresh := runTM(t, tr, 8)
	if reused.Rounds != fresh.Rounds || reused.Moves != fresh.Moves ||
		reused.EdgeExplorations != fresh.EdgeExplorations {
		t.Errorf("reset run %+v differs from fresh run %+v", reused, fresh)
	}
	_ = first
}
