package exp

import (
	"math/rand"

	"bfdn/internal/bounds"
	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/recursive"
	"bfdn/internal/sim"
	"bfdn/internal/sweep"
	"bfdn/internal/table"
	"bfdn/internal/tree"
	"bfdn/internal/urns"
)

// E1Theorem1 measures BFDN's runtime against the Theorem 1 guarantee
// 2n/k + D²(min{log k, log Δ}+3) on every workload family. The (tree, k)
// grid runs on the sweep engine.
func E1Theorem1(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E1 — Theorem 1: BFDN runtime vs guarantee",
		"tree", "n", "D", "Δ", "k", "rounds", "bound", "2n/k", "util")
	var out Outcome
	trees := workloadTrees(cfg)
	ks := []int{2, 8, 32}
	var pts []sweep.Point
	for _, tr := range trees {
		for _, k := range ks {
			pts = append(pts, sweep.Point{Tree: tr, K: k, NewAlgorithm: newBFDN, Name: "bfdn"})
		}
	}
	results, err := runSweep(cfg, "E1", pts)
	if err != nil {
		return nil, out, err
	}
	i := 0
	for _, tr := range trees {
		for _, k := range ks {
			res := results[i]
			i++
			bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
			opt := 2 * float64(tr.N()) / float64(k)
			tb.AddRow(tr.String(), tr.N(), tr.Depth(), tr.MaxDegree(), k,
				res.Rounds, bound, opt, float64(res.Rounds)/bound)
			out.check(float64(res.Rounds) <= bound,
				"E1: %s k=%d: %d rounds > bound %.1f", tr, k, res.Rounds, bound)
		}
	}
	return tb, out, nil
}

// newBFDN is the sweep-point factory for the paper's default BFDN. Its
// points are named "bfdn", and CTE's "cte", so a worker resets its previous
// instance in place (sweep.Point.Name) and steady-state grid points
// construct nothing.
func newBFDN(k int, _ *rand.Rand) sim.Algorithm { return core.NewAlgorithm(k) }

// newCTE is the sweep-point factory for the CTE baseline.
func newCTE(k int, _ *rand.Rand) sim.Algorithm { return cte.New(k) }

// E2Figure1 reproduces Figure 1: the analytic region map of guarantee
// winners over (n, D) for k = 32, plus an empirical winner map comparing the
// implemented algorithms (BFDN, BFDN_2, CTE) on generated trees.
func E2Figure1(cfg Config) (*table.Table, string, Outcome, error) {
	var out Outcome
	k := 32
	m := bounds.NewRegionMap(k, 4, 60, 1, 30, 72, 26)
	tb := table.New("E2 — Figure 1: share of the (n,D) plane per algorithm (analytic, k=32)",
		"algorithm", "share")
	for _, w := range []bounds.Winner{bounds.WinnerCTE, bounds.WinnerYoStar, bounds.WinnerBFDN, bounds.WinnerBFDNL} {
		tb.AddRow(w.String(), m.Share(w))
	}
	out.check(m.Share(bounds.WinnerBFDN) > 0.15, "E2: BFDN share too small: %v", m.Share(bounds.WinnerBFDN))
	out.check(m.Share(bounds.WinnerBFDNL) > 0, "E2: BFDN_l region empty")
	out.check(m.Share(bounds.WinnerCTE) > 0, "E2: CTE region empty")
	out.check(m.Share(bounds.WinnerYoStar) > 0, "E2: Yo* region empty")

	// Empirical winner map: BFDN vs BFDN_2 vs CTE on random trees over a
	// small (n, D) grid — the shape check for the part of the figure we can
	// actually run.
	rng := cfg.rng(2)
	empTb := table.New("E2b — empirical winner (measured rounds, k=32)",
		"n", "D", "BFDN", "BFDN_2", "CTE", "winner")
	for _, n := range []int{400 * cfg.Scale, 4000 * cfg.Scale} {
		for _, d := range []int{4, 32, 150} {
			if d >= n {
				continue
			}
			tr := tree.Random(n, d, rng)
			rB, err := run(tr, k, core.NewAlgorithm(k))
			if err != nil {
				return nil, "", out, err
			}
			alg2, err := recursive.NewBFDNL(k, 2)
			if err != nil {
				return nil, "", out, err
			}
			rL, err := run(tr, k, alg2)
			if err != nil {
				return nil, "", out, err
			}
			rC, err := run(tr, k, cte.New(k))
			if err != nil {
				return nil, "", out, err
			}
			winner := "BFDN"
			best := rB.Rounds
			if rL.Rounds < best {
				winner, best = "BFDN_2", rL.Rounds
			}
			if rC.Rounds < best {
				winner = "CTE"
			}
			empTb.AddRow(tr.N(), tr.Depth(), rB.Rounds, rL.Rounds, rC.Rounds, winner)
			// Paper shape: for shallow bushy trees, BFDN (or its recursive
			// variant) beats CTE.
			if d == 4 {
				out.check(minInt(rB.Rounds, rL.Rounds) <= rC.Rounds,
					"E2: shallow tree n=%d: CTE (%d) beat BFDN (%d)", n, rC.Rounds, rB.Rounds)
			}
		}
	}
	return tb, m.Render() + "\n" + empTb.Render(), out, nil
}

// E3Urns plays the balls-in-urns game for every adversary against the
// least-loaded player and checks Theorem 3, including the exact game value.
func E3Urns(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E3 — Theorem 3: urns game length vs k·min{logΔ,logk}+2k",
		"k", "Δ", "adversary", "steps", "bound", "dp-value")
	var out Outcome
	rng := cfg.rng(3)
	for _, k := range []int{4, 16, 64, 256 * cfg.Scale} {
		for _, delta := range []int{2, k} {
			dpVal := -1
			if k <= 64 {
				dpVal = urns.NewGameValue(k, delta).Start()
			}
			for _, adv := range []struct {
				name string
				a    urns.Adversary
			}{
				{"strategic", urns.StrategicAdversary{}},
				{"random", &urns.RandomAdversary{Rng: rng}},
				{"fresh-first", urns.FreshFirstAdversary{}},
			} {
				b, err := urns.NewBoard(k, delta)
				if err != nil {
					return nil, out, err
				}
				res, err := urns.Play(b, urns.LeastLoadedPlayer{}, adv.a, 0, false)
				if err != nil {
					return nil, out, err
				}
				bound := bounds.Theorem3(k, delta)
				tb.AddRow(k, delta, adv.name, res.Steps, bound, dpVal)
				out.check(float64(res.Steps) <= bound,
					"E3: k=%d Δ=%d %s: %d steps > %.1f", k, delta, adv.name, res.Steps, bound)
				if dpVal >= 0 {
					out.check(res.Steps <= dpVal,
						"E3: k=%d Δ=%d %s: %d steps > game value %d", k, delta, adv.name, res.Steps, dpVal)
				}
			}
		}
	}
	return tb, out, nil
}

// E4Lemma2 measures the per-depth re-anchor counts against
// k(min{log k, log Δ}+3).
func E4Lemma2(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E4 — Lemma 2: max re-anchors per depth vs k(min{logk,logΔ}+3)",
		"tree", "k", "max-reanchors", "bound")
	var out Outcome
	for _, tr := range workloadTrees(cfg) {
		for _, k := range []int{4, 32} {
			alg := core.NewAlgorithm(k)
			if _, err := run(tr, k, alg); err != nil {
				return nil, out, err
			}
			got := alg.Inner().Stats().MaxReanchorsAtDepth()
			bound := bounds.Lemma2(k, tr.MaxDegree())
			tb.AddRow(tr.String(), k, got, bound)
			out.check(float64(got) <= bound,
				"E4: %s k=%d: %d re-anchors > %.1f", tr, k, got, bound)
		}
	}
	return tb, out, nil
}

// E5Claims verifies the structural claims 1–3 (Claim 4 is checked per-round
// by the core test suite): bounded still-robot rounds, unique dangling
// traversal, and the excursion identity.
func E5Claims(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E5 — Claims 1–3 on instrumented runs",
		"tree", "k", "still-rounds", "2(D+1)", "explorations", "n-1", "bad-excursions")
	var out Outcome
	for _, tr := range workloadTrees(cfg) {
		k := 8
		alg := core.NewAlgorithm(k, core.WithExcursionRecording())
		res, err := run(tr, k, alg)
		if err != nil {
			return nil, out, err
		}
		bad := 0
		for _, x := range alg.Inner().Stats().Excursions {
			if x.Explored != (x.Rounds-2*x.Depth)/2 {
				bad++
			}
		}
		tb.AddRow(tr.String(), k, res.StillRobotRounds, 2*(tr.Depth()+1),
			res.EdgeExplorations, tr.N()-1, bad)
		out.check(res.StillRobotRounds <= 2*(tr.Depth()+1),
			"E5: %s: %d still rounds", tr, res.StillRobotRounds)
		out.check(res.EdgeExplorations == tr.N()-1,
			"E5: %s: %d explorations", tr, res.EdgeExplorations)
		out.check(bad == 0, "E5: %s: %d excursions violate Claim 3", tr, bad)
	}
	return tb, out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
