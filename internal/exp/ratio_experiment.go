package exp

import (
	"bfdn/internal/bounds"
	"bfdn/internal/sweep"
	"bfdn/internal/table"
	"bfdn/internal/tree"
)

// E14CompetitiveRatio measures the paper's *original* performance metric —
// the competitive ratio T/(n/k + D) (§1) — across k, for BFDN and CTE.
// Predictions: BFDN's ratio stays below its guarantee ratio
// Theorem1/(n/k+D); no algorithm beats the offline lower bound
// max{2n/k, 2D} (ratio floor ≈ 2 up to rounding); and on bushy trees BFDN's
// measured ratio approaches the optimal 2 as n/k grows (the competitive-
// overhead framing's whole point). The (tree, k, algorithm) grid runs on the
// sweep engine.
func E14CompetitiveRatio(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E14 — competitive ratio T/(n/k+D) across k",
		"tree", "k", "BFDN-T", "BFDN-ratio", "CTE-T", "CTE-ratio", "guar-ratio")
	var out Outcome
	rng := cfg.rng(14)
	suite := []*tree.Tree{
		tree.Random(4000*cfg.Scale, 12, rng),
		tree.Random(1200*cfg.Scale, 60, rng),
		tree.UnevenPaths(64, 40*cfg.Scale),
	}
	ks := []int{2, 8, 32, 128}
	var pts []sweep.Point
	for _, tr := range suite {
		for _, k := range ks {
			pts = append(pts,
				sweep.Point{Tree: tr, K: k, NewAlgorithm: newBFDN, Name: "bfdn"},
				sweep.Point{Tree: tr, K: k, NewAlgorithm: newCTE, Name: "cte"})
		}
	}
	// The near-optimality probe: the bushy tree with only two robots.
	bushy := suite[0]
	pts = append(pts, sweep.Point{Tree: bushy, K: 2, NewAlgorithm: newBFDN, Name: "bfdn"})
	results, err := runSweep(cfg, "E14", pts)
	if err != nil {
		return nil, out, err
	}
	i := 0
	for _, tr := range suite {
		for _, k := range ks {
			rB, rC := results[i], results[i+1]
			i += 2
			denom := float64(tr.N())/float64(k) + float64(tr.Depth())
			ratioB := float64(rB.Rounds) / denom
			ratioC := float64(rC.Rounds) / denom
			guar := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree()) / denom
			tb.AddRow(tr.String(), k, rB.Rounds, ratioB, rC.Rounds, ratioC, guar)
			out.check(ratioB <= guar+1e-9,
				"E14: %s k=%d: BFDN ratio %.2f above guarantee ratio %.2f", tr, k, ratioB, guar)
			lb := bounds.OfflineLB(tr.N(), tr.Depth(), k)
			out.check(float64(rB.Rounds) >= lb-1,
				"E14: %s k=%d: BFDN beat the offline lower bound", tr, k)
			out.check(float64(rC.Rounds) >= lb-1,
				"E14: %s k=%d: CTE beat the offline lower bound", tr, k)
		}
	}
	// On the bushy tree with few robots, BFDN's ratio must be near the
	// offline 2: the overhead term is negligible when n/k ≫ D² log k.
	rB := results[i]
	denom := float64(bushy.N())/2 + float64(bushy.Depth())
	out.check(float64(rB.Rounds)/denom < 2.5,
		"E14: %s k=2: ratio %.2f not close to the optimal 2", bushy, float64(rB.Rounds)/denom)
	return tb, out, nil
}
