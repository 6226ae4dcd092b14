package adversary

import (
	"context"
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Remark 8 of the paper suggests a stronger adversary "that observes the
// moves that the robots have selected before choosing which robots to
// block". The blockers below are such state-adaptive adversaries: each
// inspects the online view (positions, dangling edges) and picks at most
// max robots to stall this round.
type blocker func(v *sim.View, max int) map[int]bool

// blockExplorers stalls up to max robots that stand next to a dangling edge
// — the robots about to make progress. The most damaging simple policy:
// it converts exploration rounds into pure waiting.
func blockExplorers(v *sim.View, max int) map[int]bool {
	blocked := make(map[int]bool, max)
	for i := 0; i < v.K() && len(blocked) < max; i++ {
		if v.UnreservedDanglingAt(v.Pos(i)) > 0 {
			blocked[i] = true
		}
	}
	return blocked
}

// blockDeepest stalls the max robots farthest from the root, delaying every
// return trip (and hence all re-anchoring decisions).
func blockDeepest(v *sim.View, max int) map[int]bool {
	type cand struct {
		robot, depth int
	}
	var cands []cand
	for i := 0; i < v.K(); i++ {
		if d := v.DepthOf(v.Pos(i)); d > 0 {
			cands = append(cands, cand{robot: i, depth: d})
		}
	}
	// Selection by partial sort: budgets are tiny.
	blocked := make(map[int]bool, max)
	for len(blocked) < max && len(cands) > 0 {
		best := 0
		for j := range cands {
			if cands[j].depth > cands[best].depth {
				best = j
			}
		}
		blocked[cands[best].robot] = true
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return blocked
}

// blockReturners stalls up to max robots that are heading home (no dangling
// at their node), starving the root of planner-relevant returns without
// ever blocking actual exploration — a low-damage control policy used to
// contrast with blockExplorers.
func blockReturners(v *sim.View, max int) map[int]bool {
	blocked := make(map[int]bool, max)
	for i := 0; i < v.K() && len(blocked) < max; i++ {
		pos := v.Pos(i)
		if pos != tree.Root && v.UnreservedDanglingAt(pos) == 0 {
			blocked[i] = true
		}
	}
	return blocked
}

// adaptive runs a blocker as a Schedule over w: on the first query of each
// round it computes the round's blocked set from w's view, which still
// shows the round's start state, and answers the round's other queries
// from that set.
type adaptive struct {
	v       *sim.View
	block   blocker
	max     int
	round   int
	blocked map[int]bool
}

func newAdaptive(w *sim.World, block blocker, max int) *adaptive {
	return &adaptive{v: w.View(), block: block, max: max, round: -1}
}

// Allowed implements Schedule.
func (s *adaptive) Allowed(round, robot int) bool {
	if round != s.round {
		s.round, s.blocked = round, s.block(s.v, s.max)
	}
	return !s.blocked[robot]
}

func runAdaptive(t *testing.T, tr *tree.Tree, k int, block blocker, max int) Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUntilExplored(w, New(k, newAdaptive(w, block, max)), 10_000_000)
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
		for _, block := range []blocker{blockExplorers, blockDeepest, blockReturners} {
			runAdaptive(t, tr, k, block, k-1)
		}
	}
}

func TestAdaptiveMustLeaveOneRobotFree(t *testing.T) {
	// With budget k−1 the adversary can stall all but one robot forever;
	// exploration still completes (one mover suffices), just slowly.
	tr := tree.Random(120, 8, rand.New(rand.NewSource(31)))
	k := 4
	res := runAdaptive(t, tr, k, blockExplorers, k-1)
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
		for _, block := range []blocker{blockExplorers, blockDeepest} {
			res := runAdaptive(t, tr, k, block, k/2)
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
	for name, block := range map[string]blocker{
		"explorers": blockExplorers, "deepest": blockDeepest, "returners": blockReturners,
	} {
		if got := block(v, 2); len(got) > 2 {
			t.Errorf("block %s stalled %d robots, budget 2", name, len(got))
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
	a := New(2, AllowAll{})
	if _, err := sim.RunContext(context.Background(), w, a, 0, nil, func([]sim.Move, []sim.ExploreEvent, bool) (bool, error) {
		return w.Round() == 5, nil
	}); err != nil {
		t.Fatal(err)
	}
	v := w.View()
	blocked := blockDeepest(v, 1)
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
