package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func runBFDN(t *testing.T, tr *tree.Tree, k int, opts ...Option) (sim.Result, *Stats) {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	alg := NewAlgorithm(k, opts...)
	res, err := sim.Run(w, alg, 0)
	if err != nil {
		t.Fatalf("Run(%s, k=%d): %v", tr, k, err)
	}
	if !res.FullyExplored {
		t.Fatalf("%s k=%d: tree not fully explored (%d/%d nodes)", tr, k, w.ExploredCount(), tr.N())
	}
	if !res.AllAtRoot {
		t.Fatalf("%s k=%d: robots not back at root", tr, k)
	}
	return res, alg.Inner().Stats()
}

func testTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(1234))
	return []*tree.Tree{
		tree.Path(1),
		tree.Path(2),
		tree.Path(50),
		tree.Star(40),
		tree.KAry(2, 6),
		tree.KAry(3, 4),
		tree.Spider(7, 9),
		tree.Comb(12, 5),
		tree.Caterpillar(10, 4),
		tree.Broom(15, 10),
		tree.Random(300, 15, rng),
		tree.Random(500, 8, rng),
		tree.RandomBinary(200, rng),
		tree.UnevenPaths(8, 30),
	}
}

func TestBFDNCorrectnessAcrossFamiliesAndK(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 3, 8, 32} {
			runBFDN(t, tr, k)
		}
	}
}

func TestBFDNTheorem1Bound(t *testing.T) {
	for _, tr := range testTrees(t) {
		for _, k := range []int{1, 2, 4, 16, 64} {
			res, _ := runBFDN(t, tr, k)
			bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
			if float64(res.Rounds) > bound {
				t.Errorf("%s k=%d: rounds %d exceed Theorem 1 bound %.1f", tr, k, res.Rounds, bound)
			}
		}
	}
}

func TestBFDNTheorem1BoundRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		n := 20 + rng.Intn(600)
		d := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		tr := tree.Random(n, d, rng)
		res, _ := runBFDN(t, tr, k)
		bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
		if float64(res.Rounds) > bound {
			t.Errorf("random n=%d D=%d k=%d: rounds %d exceed bound %.1f", n, tr.Depth(), k, res.Rounds, bound)
		}
	}
}

func TestBFDNLemma2ReanchorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trees := append(testTrees(t), tree.Random(1000, 25, rng))
	for _, tr := range trees {
		for _, k := range []int{2, 8, 32} {
			_, stats := runBFDN(t, tr, k)
			bound := bounds.Lemma2(k, tr.MaxDegree())
			if got := float64(stats.MaxReanchorsAtDepth()); got > bound {
				t.Errorf("%s k=%d: max re-anchors per depth %v exceeds Lemma 2 bound %.1f",
					tr, k, got, bound)
			}
		}
	}
}

func TestBFDNClaim1StillRounds(t *testing.T) {
	// Claim 1 bounds the rounds in which some robot does not move by D+1.
	// Its proof informally assumes idle-at-root rounds only occur while all
	// other robots are "on their way back"; a robot can in fact still be in
	// BF descent towards an anchor that was closed while it travelled, which
	// stretches the final phase to at most 2D. We therefore assert the safe
	// bound 2(D+1); Theorem 1 absorbs the difference (see EXPERIMENTS.md).
	for _, tr := range testTrees(t) {
		for _, k := range []int{2, 8} {
			res, _ := runBFDN(t, tr, k)
			if res.StillRobotRounds > 2*(tr.Depth()+1) {
				t.Errorf("%s k=%d: %d still-robot rounds, want ≤ %d",
					tr, k, res.StillRobotRounds, 2*(tr.Depth()+1))
			}
		}
	}
}

func TestBFDNClaim3ExcursionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tr := range []*tree.Tree{
		tree.Random(200, 10, rng), tree.Spider(5, 8), tree.KAry(2, 5),
	} {
		for _, k := range []int{1, 3, 9} {
			_, stats := runBFDN(t, tr, k, WithExcursionRecording())
			if len(stats.Excursions) == 0 {
				t.Fatalf("%s k=%d: no excursions recorded", tr, k)
			}
			totalExplored := 0
			for _, x := range stats.Excursions {
				if x.Explored != (x.Rounds-2*x.Depth)/2 {
					t.Errorf("%s k=%d robot %d: excursion depth=%d rounds=%d explored=%d violates Claim 3",
						tr, k, x.Robot, x.Depth, x.Rounds, x.Explored)
				}
				totalExplored += x.Explored
			}
			if totalExplored != tr.N()-1 {
				t.Errorf("%s k=%d: excursions explored %d edges, want %d",
					tr, k, totalExplored, tr.N()-1)
			}
		}
	}
}

// TestBFDNClaim4OpenNodeCoverage checks, from a round hook after every
// round, that every node adjacent to a dangling edge lies in the subtree of
// some robot's anchor.
func TestBFDNClaim4OpenNodeCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tr := range []*tree.Tree{
		tree.Random(120, 9, rng), tree.Comb(8, 4), tree.KAry(3, 3),
	} {
		for _, k := range []int{2, 5} {
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			alg := NewAlgorithm(k)
			v := w.View()
			res, err := sim.RunContext(context.Background(), w, alg, 0, nil, func(_ []sim.Move, _ []sim.ExploreEvent, moved bool) (bool, error) {
				// Claim 4 check: every explored node with a dangling edge is
				// a descendant of some anchor.
				inner := alg.Inner()
				for node := tree.NodeID(0); int(node) < tr.N(); node++ {
					if !v.Explored(node) || v.DanglingAt(node) == 0 {
						continue
					}
					covered := false
					for j := range inner.Robots() {
						if tr.IsAncestor(inner.Anchor(j), node) {
							covered = true
							break
						}
					}
					if !covered {
						return false, fmt.Errorf("round %d: open node %d not covered by any anchor subtree", v.Round(), node)
					}
				}
				return !moved, nil
			})
			if err != nil || !res.FullyExplored {
				t.Fatalf("%s k=%d: explored=%v: %v", tr, k, res.FullyExplored, err)
			}
		}
	}
}

func TestBFDNDeterministic(t *testing.T) {
	tr := tree.Random(400, 14, rand.New(rand.NewSource(2)))
	r1, s1 := runBFDN(t, tr, 8)
	r2, s2 := runBFDN(t, tr, 8)
	if r1.Rounds != r2.Rounds || r1.Moves != r2.Moves {
		t.Errorf("two runs differ: %d/%d rounds, %d/%d moves", r1.Rounds, r2.Rounds, r1.Moves, r2.Moves)
	}
	if s1.MaxReanchorsAtDepth() != s2.MaxReanchorsAtDepth() {
		t.Error("re-anchor stats differ across identical runs")
	}
}

func TestBFDNPoliciesAllCorrect(t *testing.T) {
	tr := tree.Random(250, 12, rand.New(rand.NewSource(13)))
	for _, p := range []Policy{LeastLoaded, RoundRobin, RandomOpen, MostLoaded} {
		t.Run(p.String(), func(t *testing.T) {
			opts := []Option{WithPolicy(p)}
			if p == RandomOpen {
				opts = append(opts, WithRand(rand.New(rand.NewSource(99))))
			}
			runBFDN(t, tr, 6, opts...)
		})
	}
}

func TestBFDNSingleRobotMatchesDFSEdgeCount(t *testing.T) {
	// With k=1, every edge is still traversed exactly twice during
	// excursions, plus the BF travel to anchors; total rounds within bound.
	tr := tree.Random(150, 10, rand.New(rand.NewSource(4)))
	res, _ := runBFDN(t, tr, 1)
	if res.EdgeExplorations != tr.N()-1 {
		t.Errorf("edge explorations = %d, want %d", res.EdgeExplorations, tr.N()-1)
	}
	if res.Rounds < 2*(tr.N()-1) {
		t.Errorf("k=1 rounds %d below 2(n-1)=%d, impossible", res.Rounds, 2*(tr.N()-1))
	}
}

func TestBFDNMoreRobotsNeverWorseMuch(t *testing.T) {
	// Sanity: on a big shallow tree, runtime decreases substantially from
	// k=1 to k=16 (the 2n/k term dominates).
	tr := tree.Random(3000, 8, rand.New(rand.NewSource(6)))
	r1, _ := runBFDN(t, tr, 1)
	r16, _ := runBFDN(t, tr, 16)
	if float64(r16.Rounds) > 0.5*float64(r1.Rounds) {
		t.Errorf("k=16 rounds %d not ≪ k=1 rounds %d", r16.Rounds, r1.Rounds)
	}
}

func TestBFDNKGreaterThanN(t *testing.T) {
	tr := tree.Path(5)
	res, _ := runBFDN(t, tr, 50)
	if res.Rounds == 0 {
		t.Error("no rounds on a path")
	}
}

func TestBFDNStarOneRoundPerWave(t *testing.T) {
	// Star with n-1 leaves and k ≥ n-1 robots: all leaves explored in round
	// 1, all back by round 2.
	tr := tree.Star(21)
	res, _ := runBFDN(t, tr, 20)
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
}

func TestBFDNDepthLimitedStopsAnchoring(t *testing.T) {
	// With WithMaxAnchorDepth(0), only the root may be an anchor; by Claim 5
	// each subtree hanging below depth 1 is explored by the single robot that
	// entered it. Exploration still completes.
	tr := tree.KAry(2, 5)
	for _, k := range []int{2, 4} {
		res, _ := runBFDN(t, tr, k, WithMaxAnchorDepth(0))
		if res.EdgeExplorations != tr.N()-1 {
			t.Errorf("k=%d: explored %d, want %d", k, res.EdgeExplorations, tr.N()-1)
		}
	}
}

func TestBFDNDepthLimitedReanchorsRespectLimit(t *testing.T) {
	tr := tree.Random(300, 12, rand.New(rand.NewSource(10)))
	for _, limit := range []int{0, 1, 3, 6} {
		w, _ := sim.NewWorld(tr, 4)
		alg := NewAlgorithm(4, WithMaxAnchorDepth(limit))
		if _, err := sim.Run(w, alg, 0); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if !w.FullyExplored() {
			t.Fatalf("limit %d: incomplete", limit)
		}
		stats := alg.Inner().Stats()
		for d, c := range stats.ReanchorsPerDepth {
			if d > limit && c > 0 {
				t.Errorf("limit %d: %d re-anchors at depth %d", limit, c, d)
			}
		}
	}
}

func TestBFDNEdgeExploredExactlyOnce(t *testing.T) {
	// Claim 2: each dangling edge explored exactly once; total explorations
	// equals n−1 on every run.
	for _, tr := range testTrees(t) {
		res, _ := runBFDN(t, tr, 7)
		if res.EdgeExplorations != tr.N()-1 {
			t.Errorf("%s: explorations %d, want %d", tr, res.EdgeExplorations, tr.N()-1)
		}
	}
}
