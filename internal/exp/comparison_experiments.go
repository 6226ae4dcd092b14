package exp

import (
	"math/rand"

	"bfdn/internal/bounds"
	"bfdn/internal/core"
	"bfdn/internal/offline"
	"bfdn/internal/sim"
	"bfdn/internal/sweep"
	"bfdn/internal/table"
	"bfdn/internal/tree"
	"bfdn/internal/urns"
)

// E10CTEComparison compares BFDN against CTE, single-robot DFS, the offline
// segment-splitting algorithm, and the offline lower bound, reporting the
// competitive overhead T − 2n/k. Paper prediction: BFDN's overhead is
// O(D² log k) on every tree, while CTE's overhead can reach Ω(Dk/log k) on
// the uneven-paths family. All simulation runs execute as one sweep grid;
// the offline splitter is a direct computation and stays inline.
func E10CTEComparison(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E10 — BFDN vs CTE vs offline (overhead = rounds − 2n/k)",
		"tree", "k", "BFDN", "CTE", "DFS(k=1)", "offline", "lower", "ovh-BFDN", "ovh-CTE")
	var out Outcome
	k := 16
	suite := append(workloadTrees(cfg), tree.UnevenPaths(k, 120*cfg.Scale))
	// The headline comparison (Figure 1 / Appendix A): inside BFDN's region
	// n ≥ D²·log²k, BFDN's competitive overhead beats CTE's. Measured on
	// bushy trees squarely inside the region.
	region := []*tree.Tree{
		tree.Random(6000*cfg.Scale, 12, cfg.rng(10)),
		tree.UnevenPaths(16*k, 30),
	}
	var pts []sweep.Point
	for _, tr := range append(append([]*tree.Tree{}, suite...), region...) {
		pts = append(pts,
			sweep.Point{Tree: tr, K: k, NewAlgorithm: newBFDN, Name: "bfdn"},
			sweep.Point{Tree: tr, K: k, NewAlgorithm: newCTE, Name: "cte"})
	}
	results, err := runSweep(cfg, "E10", pts)
	if err != nil {
		return nil, out, err
	}
	i := 0
	for _, tr := range suite {
		rB, rC := results[i], results[i+1]
		i += 2
		dfs := 2 * (tr.N() - 1)
		off, err := offline.SplitDFS(tr, k)
		if err != nil {
			return nil, out, err
		}
		lb := bounds.OfflineLB(tr.N(), tr.Depth(), k)
		opt := 2 * float64(tr.N()-1) / float64(k)
		ovhB := float64(rB.Rounds) - opt
		ovhC := float64(rC.Rounds) - opt
		tb.AddRow(tr.String(), k, rB.Rounds, rC.Rounds, dfs, off.Rounds, lb, ovhB, ovhC)
		out.check(float64(rB.Rounds) >= lb-1,
			"E10: %s: BFDN %d below lower bound %.1f", tr, rB.Rounds, lb)
		out.check(ovhB <= bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())-opt+1,
			"E10: %s: BFDN overhead %.1f above guarantee", tr, ovhB)
	}
	for _, hard := range region {
		rB, rC := results[i], results[i+1]
		i += 2
		opt := 2 * float64(hard.N()-1) / float64(k)
		tb.AddRow(hard.String()+" (region)", k, rB.Rounds, rC.Rounds, 2*(hard.N()-1),
			0, bounds.OfflineLB(hard.N(), hard.Depth(), k),
			float64(rB.Rounds)-opt, float64(rC.Rounds)-opt)
		out.check(float64(rB.Rounds)-opt <= float64(rC.Rounds)-opt,
			"E10: BFDN overhead %.1f not below CTE overhead %.1f on %s (BFDN region)",
			float64(rB.Rounds)-opt, float64(rC.Rounds)-opt, hard)
	}
	return tb, out, nil
}

// E11ResourceAllocation exercises the §3 interpretation: k workers on k
// tasks of unknown lengths, least-crowded reassignment; the number of
// switches stays below k·log k + 2k irrespective of the length distribution.
func E11ResourceAllocation(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E11 — §3 interpretation: worker reassignments vs k·logk + 2k",
		"k", "lengths", "makespan", "reassignments", "bound")
	var out Outcome
	rng := cfg.rng(11)
	for _, k := range []int{8, 64, 256 * cfg.Scale} {
		for _, dist := range []struct {
			name string
			gen  func(i int) int
		}{
			{"uniform", func(int) int { return 1 + rng.Intn(1000) }},
			{"geometric", func(i int) int { return 1 << uint(i%12) }},
			{"one-giant", func(i int) int {
				if i == 0 {
					return 100_000
				}
				return 1
			}},
		} {
			lengths := make([]int, k)
			for i := range lengths {
				lengths[i] = dist.gen(i)
			}
			res, err := urns.Allocate(lengths)
			if err != nil {
				return nil, out, err
			}
			bound := urns.AllocateBound(k)
			tb.AddRow(k, dist.name, res.Makespan, res.Reassignments, bound)
			out.check(float64(res.Reassignments) <= bound,
				"E11: k=%d %s: %d reassignments > %.1f", k, dist.name, res.Reassignments, bound)
		}
	}
	return tb, out, nil
}

// A1ReanchorPolicy ablates the Reanchor rule: least-loaded (the paper's
// choice, backed by Theorem 3) against round-robin, random, and most-loaded
// assignment. Prediction: least-loaded respects the Lemma 2 budget; the
// most-loaded rule concentrates robots and wastes rounds on anchor-heavy
// trees. The (tree, policy) grid runs on the sweep engine; because the
// checks need each run's re-anchor statistics, the point factories park the
// constructed algorithm in a per-point slot for post-run inspection.
func A1ReanchorPolicy(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("A1 — ablation: Reanchor policy",
		"tree", "k", "policy", "rounds", "max-reanchors")
	var out Outcome
	k := 16
	rng := cfg.rng(21)
	suite := []*tree.Tree{
		tree.Spider(32, 20*cfg.Scale),
		tree.Random(2000*cfg.Scale, 15, rng),
		tree.UnevenPaths(k, 60*cfg.Scale),
	}
	policies := []core.Policy{core.LeastLoaded, core.RoundRobin, core.RandomOpen, core.MostLoaded}
	var pts []sweep.Point
	algs := make([]*core.Algorithm, len(suite)*len(policies))
	for ti, tr := range suite {
		for pi, p := range policies {
			slot, p := ti*len(policies)+pi, p
			pts = append(pts, sweep.Point{Tree: tr, K: k,
				NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
					opts := []core.Option{core.WithPolicy(p)}
					if p == core.RandomOpen {
						// Seeded as in the sequential runner (not from the
						// sweep rng) to keep the historical tables stable.
						opts = append(opts, core.WithRand(cfg.rng(22)))
					}
					a := core.NewAlgorithm(k, opts...)
					algs[slot] = a
					return a
				}})
		}
	}
	results, err := runSweep(cfg, "A1", pts)
	if err != nil {
		return nil, out, err
	}
	i := 0
	for _, tr := range suite {
		rounds := map[core.Policy]int{}
		for _, p := range policies {
			res, alg := results[i], algs[i]
			i++
			rounds[p] = res.Rounds
			tb.AddRow(tr.String(), k, p.String(), res.Rounds,
				alg.Inner().Stats().MaxReanchorsAtDepth())
			if p == core.LeastLoaded {
				out.check(float64(alg.Inner().Stats().MaxReanchorsAtDepth()) <=
					bounds.Lemma2(k, tr.MaxDegree()),
					"A1: %s least-loaded breaks Lemma 2", tr)
			}
		}
		out.check(rounds[core.LeastLoaded] <= rounds[core.MostLoaded]+tr.Depth(),
			"A1: %s: least-loaded (%d) worse than most-loaded (%d)",
			tr, rounds[core.LeastLoaded], rounds[core.MostLoaded])
	}
	return tb, out, nil
}

// A2ReturnToRoot ablates the return-to-root rule: the paper's variant
// (needed for the write-read planner) against the shortcut variant that
// re-anchors in place. Prediction: the shortcut saves travel rounds but both
// respect the Theorem 1 budget.
func A2ReturnToRoot(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("A2 — ablation: return-to-root vs shortcut re-anchoring",
		"tree", "k", "baseline", "shortcut", "saved")
	var out Outcome
	k := 8
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	suite := []*tree.Tree{
		tree.Spider(24, 30*cfg.Scale),
		tree.Comb(40*cfg.Scale, 8),
		tree.Random(1500*cfg.Scale, 25, rng),
		tree.KAry(2, 9),
	}
	for _, tr := range suite {
		base, err := run(tr, k, core.NewAlgorithm(k))
		if err != nil {
			return nil, out, err
		}
		short, err := run(tr, k, core.NewAlgorithm(k, core.WithShortcutReanchor()))
		if err != nil {
			return nil, out, err
		}
		tb.AddRow(tr.String(), k, base.Rounds, short.Rounds, base.Rounds-short.Rounds)
		bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
		out.check(float64(short.Rounds) <= bound,
			"A2: %s shortcut %d rounds > %.1f", tr, short.Rounds, bound)
		out.check(float64(short.Rounds) <= 1.15*float64(base.Rounds)+float64(tr.Depth()),
			"A2: %s shortcut (%d) much slower than baseline (%d)", tr, short.Rounds, base.Rounds)
	}
	return tb, out, nil
}
