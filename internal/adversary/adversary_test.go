package adversary

import (
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runBreakdown(t *testing.T, tr *tree.Tree, k int, s Schedule, maxRounds int64) Result {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUntilExplored(w, New(k, s), maxRounds)
	if err != nil {
		t.Fatalf("%s k=%d: %v", tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("%s k=%d: not explored within %d rounds", tr, k, maxRounds)
	}
	return res
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	return []*tree.Tree{
		tree.Path(30), tree.Star(25), tree.KAry(2, 5),
		tree.Spider(5, 7), tree.Random(300, 12, rng),
	}
}

func TestAllowAllMatchesPlainBFDNBudget(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{2, 8} {
			res := runBreakdown(t, tr, k, AllowAll{}, 1_000_000)
			bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
			if res.AllowedAverage > bound {
				t.Errorf("%s k=%d: A(M)=%.1f exceeds Prop 7 bound %.1f",
					tr, k, res.AllowedAverage, bound)
			}
		}
	}
}

func TestProposition7Bernoulli(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, p := range []float64{0.2, 0.5, 0.9} {
			k := 6
			s := &Bernoulli{P: p, K: k, Seed: 42}
			res := runBreakdown(t, tr, k, s, 5_000_000)
			bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
			if res.AllowedAverage > bound {
				t.Errorf("%s p=%.1f: A(M)=%.1f exceeds Prop 7 bound %.1f",
					tr, p, res.AllowedAverage, bound)
			}
		}
	}
}

func TestProposition7RoundRobinBlock(t *testing.T) {
	for _, tr := range testTrees(t) {
		k := 5
		res := runBreakdown(t, tr, k, &RoundRobinBlock{K: k}, 2_000_000)
		bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
		if res.AllowedAverage > bound {
			t.Errorf("%s: A(M)=%.1f exceeds bound %.1f", tr, res.AllowedAverage, bound)
		}
	}
}

func TestProposition7Blackout(t *testing.T) {
	// Robots 0 and 1 fail permanently after round 10; the rest must finish
	// the job. The A(M) budget still covers it.
	tr := tree.Random(200, 10, rand.New(rand.NewSource(9)))
	k := 6
	s := &Blackout{Robots: map[int]bool{0: true, 1: true}, From: 10, To: 1 << 30}
	res := runBreakdown(t, tr, k, s, 2_000_000)
	bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
	if res.AllowedAverage > bound {
		t.Errorf("A(M)=%.1f exceeds bound %.1f", res.AllowedAverage, bound)
	}
}

func TestSingleSurvivingRobot(t *testing.T) {
	// Everyone but robot 0 is blocked from the start: exploration must still
	// complete (solo BFDN), within the A(M) budget.
	tr := tree.Random(150, 8, rand.New(rand.NewSource(14)))
	k := 4
	blocked := map[int]bool{1: true, 2: true, 3: true}
	s := &Blackout{Robots: blocked, From: 0, To: 1 << 30}
	res := runBreakdown(t, tr, k, s, 2_000_000)
	bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
	if res.AllowedAverage > bound {
		t.Errorf("A(M)=%.1f exceeds bound %.1f", res.AllowedAverage, bound)
	}
}

func TestBlockedRobotsDoNotStealDanglingEdges(t *testing.T) {
	// A star with exactly k−1 leaves and robot 0 permanently blocked: the
	// k−1 live robots must grab one leaf each despite the dead robot being
	// iterated first in robot order.
	k := 5
	tr := tree.Star(k) // k−1 = 4 leaves
	s := &Blackout{Robots: map[int]bool{0: true}, From: 0, To: 1 << 30}
	res := runBreakdown(t, tr, k, s, 1000)
	if res.Rounds > 3 {
		t.Errorf("took %d moving rounds, want ≤ 3", res.Rounds)
	}
}

func TestBernoulliDeterministicPerSeed(t *testing.T) {
	s1 := &Bernoulli{P: 0.5, K: 4, Seed: 7}
	s2 := &Bernoulli{P: 0.5, K: 4, Seed: 7}
	for r := 0; r < 50; r++ {
		for i := 0; i < 4; i++ {
			if s1.Allowed(r, i) != s2.Allowed(r, i) {
				t.Fatalf("schedules diverge at (%d,%d)", r, i)
			}
		}
	}
}

func TestScheduleQueriesAreStable(t *testing.T) {
	s := &Bernoulli{P: 0.3, K: 3, Seed: 11}
	for r := 0; r < 20; r++ {
		for i := 0; i < 3; i++ {
			a := s.Allowed(r, i)
			if b := s.Allowed(r, i); a != b {
				t.Fatalf("repeated query differs at (%d,%d)", r, i)
			}
		}
	}
}

// TestRunUntilExploredRunsThroughStillRounds pins the §4.2 stopping rule:
// a round in which no robot moves does not end a break-down run. With
// every robot blocked forever the run goes through still rounds to its cap
// and reports an unexplored tree without an error; blocked only for a
// while, it goes on to explore every edge.
func TestRunUntilExploredRunsThroughStillRounds(t *testing.T) {
	tr := tree.Random(60, 6, rand.New(rand.NewSource(3)))
	all := map[int]bool{0: true, 1: true, 2: true}
	w, err := sim.NewWorld(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunUntilExplored(w, New(3, &Blackout{Robots: all, From: 0, To: 1 << 30}), 40)
	if err != nil || res.FullyExplored || res.TotalRounds != 40 || res.Rounds != 0 || res.AllowedAverage != 0 {
		t.Errorf("blocked forever: %+v, %v; want 40 still rounds, no exploration and no error", res, err)
	}
	if res = runBreakdown(t, tr, 3, &Blackout{Robots: all, From: 0, To: 25}, 10_000); res.TotalRounds-res.Rounds < 25 {
		t.Errorf("blocked for 25 rounds: %d rounds, %d with a move", res.TotalRounds, res.Rounds)
	}
}
