package offline

import (
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func TestLowerBound(t *testing.T) {
	cases := []struct {
		n, d, k int
		want    float64
	}{
		{100, 5, 2, 99},   // 2·99/2
		{100, 80, 2, 160}, // 2D dominates
		{1, 0, 4, 0},      // single node
		{11, 10, 1, 20},   // path
		{1000, 3, 10, 199.8},
	}
	for _, tc := range cases {
		if got := bounds.OfflineLB(tc.n, tc.d, tc.k); got != tc.want {
			t.Errorf("bounds.OfflineLB(%d,%d,%d) = %v, want %v", tc.n, tc.d, tc.k, got, tc.want)
		}
	}
}

func TestEulerTour(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tr := range []*tree.Tree{
		tree.Path(1), tree.Path(6), tree.Star(8), tree.KAry(2, 4),
		tree.Random(200, 10, rng),
	} {
		tour := EulerTour(tr)
		if len(tour) != 2*tr.N()-1 {
			t.Fatalf("%s: tour length %d, want %d", tr, len(tour), 2*tr.N()-1)
		}
		if tour[0] != tree.Root || tour[len(tour)-1] != tree.Root {
			t.Errorf("%s: tour does not start/end at root", tr)
		}
		// Consecutive nodes are adjacent; every edge appears exactly twice.
		edgeCount := make(map[[2]tree.NodeID]int)
		for i := 0; i+1 < len(tour); i++ {
			u, v := tour[i], tour[i+1]
			if tr.Parent(u) != v && tr.Parent(v) != u {
				t.Fatalf("%s: tour step %d: %d and %d not adjacent", tr, i, u, v)
			}
			lo, hi := u, v
			if lo > hi {
				lo, hi = hi, lo
			}
			edgeCount[[2]tree.NodeID{lo, hi}]++
		}
		if len(edgeCount) != tr.N()-1 {
			t.Errorf("%s: tour covers %d edges, want %d", tr, len(edgeCount), tr.N()-1)
		}
		for e, c := range edgeCount {
			if c != 2 {
				t.Errorf("%s: edge %v traversed %d times, want 2", tr, e, c)
			}
		}
	}
}

func TestSplitDFSWithinFactorTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	trees := []*tree.Tree{
		tree.Path(100), tree.Star(100), tree.KAry(2, 8),
		tree.Random(2000, 30, rng), tree.Spider(10, 20),
	}
	for _, tr := range trees {
		for _, k := range []int{1, 2, 7, 32} {
			res, err := SplitDFS(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			ub := 2*(float64(tr.N())/float64(k)+float64(tr.Depth())) + float64(k) // +k slack for ceil effects
			if float64(res.Rounds) > ub {
				t.Errorf("%s k=%d: makespan %d exceeds 2(n/k+D)+k = %.1f", tr, k, res.Rounds, ub)
			}
			lb := bounds.OfflineLB(tr.N(), tr.Depth(), k)
			if float64(res.Rounds) < lb-float64(2*tr.Depth()) {
				t.Errorf("%s k=%d: makespan %d implausibly below lower bound %.1f", tr, k, res.Rounds, lb)
			}
		}
	}
}

func TestSplitDFSSingleRobotIsEulerTour(t *testing.T) {
	tr := tree.KAry(2, 5)
	res, err := SplitDFS(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2*(tr.N()-1) {
		t.Errorf("k=1 makespan = %d, want %d", res.Rounds, 2*(tr.N()-1))
	}
}

func TestSplitDFSEdgeCases(t *testing.T) {
	if _, err := SplitDFS(tree.Path(5), 0); err == nil {
		t.Error("k=0 accepted")
	}
	res, err := SplitDFS(tree.Path(1), 4)
	if err != nil || res.Rounds != 0 {
		t.Errorf("single node: res=%+v err=%v", res, err)
	}
	// More robots than tour edges: extra robots idle.
	res, err = SplitDFS(tree.Path(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.Rounds > 8 {
		t.Errorf("tiny path makespan = %d", res.Rounds)
	}
}

func TestOnlineDFSAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := tree.Random(300, 14, rng)
	w, err := sim.NewWorld(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(w, &DFS{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullyExplored || !res.AllAtRoot {
		t.Fatal("DFS incomplete")
	}
	if res.Rounds != 2*(tr.N()-1) {
		t.Errorf("DFS rounds = %d, want %d", res.Rounds, 2*(tr.N()-1))
	}
}
