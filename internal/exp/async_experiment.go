package exp

import (
	"math"

	"bfdn/internal/async"
	"bfdn/internal/bounds"
	"bfdn/internal/core"
	"bfdn/internal/table"
	"bfdn/internal/tree"
)

// E13ContinuousTime exercises the continuous-time relaxation of Remark 8:
// asynchronous BFDN with heterogeneous robot speeds. Predictions checked:
// with unit speeds the makespan stays within the (synchronous) Theorem 1
// budget; the makespan never beats the continuous-time offline floor
// max{2(n−1)/Σsᵢ, 2D/max sᵢ}; and upgrading part of the fleet never hurts.
func E13ContinuousTime(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E13 — Remark 8: continuous time, heterogeneous speeds",
		"tree", "speeds", "makespan", "floor", "sync-rounds", "T1-bound")
	var out Outcome
	rng := cfg.rng(13)
	suite := []*tree.Tree{
		tree.Random(1500*cfg.Scale, 15, rng),
		tree.Spider(8, 15*cfg.Scale),
		tree.KAry(2, 8),
		tree.Random(800*cfg.Scale, 40, rng),
	}
	fleets := []struct {
		name   string
		speeds []float64
	}{
		{"8x1.0", []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"4x1+4x4", []float64{1, 1, 1, 1, 4, 4, 4, 4}},
		{"1x8+7x1", []float64{8, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, tr := range suite {
		k := len(fleets[0].speeds)
		sync, err := run(tr, k, core.NewAlgorithm(k))
		if err != nil {
			return nil, out, err
		}
		t1 := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
		// Run every fleet first, then check: the faster-fleet comparisons
		// need the uniform fleet's makespan, and capturing it inside a single
		// loop silently compares against zero whenever the uniform fleet is
		// not listed first.
		results := make([]async.Result, len(fleets))
		uniform := math.NaN()
		for i, fl := range fleets {
			e, err := async.NewEngine(tr, fl.speeds)
			if err != nil {
				return nil, out, err
			}
			results[i], err = e.Run(0)
			if err != nil {
				return nil, out, err
			}
			if fl.name == "8x1.0" {
				uniform = results[i].Makespan
			}
		}
		out.check(!math.IsNaN(uniform), "E13: %s: no uniform baseline fleet in the suite", tr)
		for i, fl := range fleets {
			res := results[i]
			floor := async.LowerBound(tr.N(), tr.Depth(), fl.speeds)
			tb.AddRow(tr.String(), fl.name, res.Makespan, floor, sync.Rounds, t1)
			out.check(res.FullyExplored && res.AllAtRoot, "E13: %s %s incomplete", tr, fl.name)
			out.check(res.Makespan >= floor-1e-9,
				"E13: %s %s: makespan %.1f below offline floor %.1f", tr, fl.name, res.Makespan, floor)
			if fl.name == "8x1.0" {
				out.check(res.Makespan <= t1,
					"E13: %s: uniform async makespan %.1f exceeds Theorem 1 %.1f", tr, res.Makespan, t1)
			} else {
				out.check(res.Makespan <= uniform+1e-9,
					"E13: %s %s: faster fleet slower than uniform (%.1f vs %.1f)",
					tr, fl.name, res.Makespan, uniform)
			}
		}
	}
	return tb, out, nil
}
