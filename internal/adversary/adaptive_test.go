package adversary

import (
	"context"
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runAdaptive(t *testing.T, tr *tree.Tree, k int, adv Adaptive) Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUntilExplored(w, NewAdaptive(k, adv), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullyExplored {
		t.Fatalf("%s k=%d: not explored", tr, k)
	}
	return res
}

func TestAdaptiveExplorationCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	trees := []*tree.Tree{
		tree.Path(25), tree.Star(20), tree.KAry(2, 5),
		tree.Random(250, 10, rng), tree.Spider(5, 7),
	}
	k := 6
	for _, tr := range trees {
		for _, adv := range []Adaptive{
			&BlockExplorers{Max: k - 1},
			&BlockDeepest{Max: k - 1},
			&BlockReturners{Max: k - 1},
		} {
			runAdaptive(t, tr, k, adv)
		}
	}
}

func TestAdaptiveMustLeaveOneRobotFree(t *testing.T) {
	// With budget k−1 the adversary can stall all but one robot forever;
	// exploration still completes (one mover suffices), just slowly.
	tr := tree.Random(120, 8, rand.New(rand.NewSource(31)))
	k := 4
	res := runAdaptive(t, tr, k, &BlockExplorers{Max: k - 1})
	if res.EdgeExplorations != tr.N()-1 {
		t.Errorf("explorations = %d, want %d", res.EdgeExplorations, tr.N()-1)
	}
}

func TestAdaptiveExplorersWithinProp7Budget(t *testing.T) {
	// Remark 8 leaves the adaptive setting open; empirically the A(M)
	// budget of Proposition 7 survives the state-adaptive explorer-blocker
	// on our workloads (recorded in EXPERIMENTS.md as a measured
	// observation, not a theorem).
	rng := rand.New(rand.NewSource(37))
	k := 8
	for _, tr := range []*tree.Tree{
		tree.Random(400, 12, rng), tree.Spider(6, 9), tree.KAry(2, 6),
	} {
		for _, adv := range []Adaptive{
			&BlockExplorers{Max: k / 2},
			&BlockDeepest{Max: k / 2},
		} {
			res := runAdaptive(t, tr, k, adv)
			bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
			if res.AllowedAverage > bound {
				t.Errorf("%s: A(M)=%.1f exceeds Prop 7 budget %.1f",
					tr, res.AllowedAverage, bound)
			}
		}
	}
}

func TestBlockPoliciesRespectBudget(t *testing.T) {
	tr := tree.Random(150, 9, rand.New(rand.NewSource(41)))
	w, err := sim.NewWorld(tr, 6)
	if err != nil {
		t.Fatal(err)
	}
	v := w.View()
	for _, adv := range []Adaptive{
		&BlockExplorers{Max: 2}, &BlockDeepest{Max: 2}, &BlockReturners{Max: 2},
	} {
		if got := adv.Block(v, 0); len(got) > 2 {
			t.Errorf("%T blocked %d robots, budget 2", adv, len(got))
		}
	}
}

func TestBlockDeepestPicksDeepest(t *testing.T) {
	// Drive a quick run, then confirm the policy targets max-depth robots.
	tr := tree.Path(10)
	w, err := sim.NewWorld(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Advance a few rounds with plain BFDN so the robots descend.
	a := NewAdaptive(2, &BlockReturners{Max: 0})
	if _, err := sim.RunContext(context.Background(), w, a, 0, nil, func([]sim.Move, []sim.ExploreEvent, bool) (bool, error) {
		return w.Round() == 5, nil
	}); err != nil {
		t.Fatal(err)
	}
	v := w.View()
	pol := &BlockDeepest{Max: 1}
	blocked := pol.Block(v, 0)
	if len(blocked) != 1 {
		t.Fatalf("blocked %d, want 1", len(blocked))
	}
	for i := range blocked {
		for j := 0; j < 2; j++ {
			if v.DepthOf(v.Pos(j)) > v.DepthOf(v.Pos(i)) {
				t.Errorf("blocked robot %d (depth %d) but robot %d is deeper (%d)",
					i, v.DepthOf(v.Pos(i)), j, v.DepthOf(v.Pos(j)))
			}
		}
	}
}
