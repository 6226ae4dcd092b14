package exp

import (
	"math/rand"

	"bfdn/internal/bounds"
	"bfdn/internal/potential"
	"bfdn/internal/sim"
	"bfdn/internal/sweep"
	"bfdn/internal/table"
	"bfdn/internal/tree"
	"bfdn/internal/treemining"
)

// newTreeMining and newPotential are the sweep-point factories for the two
// successor algorithms, whose points are named "treemining" and "potential".
func newTreeMining(k int, _ *rand.Rand) sim.Algorithm { return treemining.New(k) }
func newPotential(k int, _ *rand.Rand) sim.Algorithm  { return potential.New(k) }

// E15FourWay races BFDN against the two successor results of the same
// research line — Tree-Mining (arXiv:2309.07011) and the Potential Function
// Method (arXiv:2311.01354) — with CTE as the classical baseline, on the
// CTE-hard generator families (deep, uneven trees where CTE's Ω(Dk/log k)
// overhead bites). Predictions: every algorithm with a closed-form envelope
// (all but CTE) finishes within it, and on the uneven-paths family — the
// CTE lower-bound construction — both successors beat CTE.
func E15FourWay(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E15 — four-way BFDN / CTE / Tree-Mining / Potential (rounds, CTE-hard families)",
		"tree", "n", "D", "k", "BFDN", "CTE", "TreeMining", "Potential", "lower")
	var out Outcome
	k := 16
	s := cfg.Scale
	suite := []*tree.Tree{
		tree.UnevenPaths(k, 60*s),
		tree.UnevenPaths(4*k, 30*s),
		tree.Spider(8, 12*s),
		tree.Comb(20*s, 6),
		tree.Caterpillar(15*s, 5),
		tree.Random(800*s, 60, cfg.rng(15)),
		// Shallow-bushy control: n/k dominates D², the regime where the
		// Potential guarantee 2n/k + O(D²) is near-optimal.
		tree.Random(1500*s, 18, cfg.rng(16)),
	}
	var pts []sweep.Point
	for _, tr := range suite {
		pts = append(pts,
			sweep.Point{Tree: tr, K: k, NewAlgorithm: newBFDN, Name: "bfdn"},
			sweep.Point{Tree: tr, K: k, NewAlgorithm: newCTE, Name: "cte"},
			sweep.Point{Tree: tr, K: k, NewAlgorithm: newTreeMining, Name: "treemining"},
			sweep.Point{Tree: tr, K: k, NewAlgorithm: newPotential, Name: "potential"})
	}
	results, err := runSweep(cfg, "E15", pts)
	if err != nil {
		return nil, out, err
	}
	i := 0
	for _, tr := range suite {
		rB, rC, rT, rP := results[i], results[i+1], results[i+2], results[i+3]
		i += 4
		lb := bounds.OfflineLB(tr.N(), tr.Depth(), k)
		tb.AddRow(tr.String(), tr.N(), tr.Depth(), k,
			rB.Rounds, rC.Rounds, rT.Rounds, rP.Rounds, lb)
		out.check(float64(rB.Rounds) <= bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree()),
			"E15: %s: BFDN %d rounds above Theorem 1", tr, rB.Rounds)
		out.check(float64(rT.Rounds) <= treemining.Bound(tr.N(), tr.Depth(), k),
			"E15: %s: Tree-Mining %d rounds above its guarantee %.1f",
			tr, rT.Rounds, treemining.Bound(tr.N(), tr.Depth(), k))
		out.check(float64(rP.Rounds) <= potential.Bound(tr.N(), tr.Depth(), k),
			"E15: %s: Potential %d rounds above its guarantee %.1f",
			tr, rP.Rounds, potential.Bound(tr.N(), tr.Depth(), k))
		for _, r := range []sim.Result{rB, rC, rT, rP} {
			out.check(float64(r.Rounds) >= lb-1,
				"E15: %s: %d rounds below offline lower bound %.1f", tr, r.Rounds, lb)
		}
	}
	// Headline contrasts. On the CTE lower-bound family (suite[0]) the
	// proportional split keeps robot mass on the surviving long paths, so
	// Tree-Mining must not lose to the even-split baseline. (No such
	// pointwise claim holds for Potential there: at D ≫ k/log k its D² term
	// legitimately exceeds CTE's Dk/log k overhead.) On the shallow-bushy
	// control (last suite entry) the Potential guarantee is near-optimal, so
	// its run must stay within a small factor of the offline lower bound.
	hard := suite[0]
	rC, rT := results[1], results[2]
	out.check(rT.Rounds <= rC.Rounds,
		"E15: %s: Tree-Mining (%d) slower than CTE (%d) on the CTE-hard family",
		hard, rT.Rounds, rC.Rounds)
	bushy := suite[len(suite)-1]
	rPBushy := results[4*(len(suite)-1)+3]
	lbBushy := bounds.OfflineLB(bushy.N(), bushy.Depth(), k)
	out.check(float64(rPBushy.Rounds) <= 4*lbBushy,
		"E15: %s: Potential (%d) above 4× offline lower bound (%.1f) in its favorable regime",
		bushy, rPBushy.Rounds, lbBushy)
	return tb, out, nil
}
