package exp

import (
	"bfdn/internal/adversary"
	"bfdn/internal/bounds"
	"bfdn/internal/graph"
	"bfdn/internal/recursive"
	"bfdn/internal/sim"
	"bfdn/internal/table"
	"bfdn/internal/tree"
	"bfdn/internal/writeread"
)

// E6WriteRead runs the distributed whiteboard BFDN (§4.1) and checks the
// Proposition 6 bound and the robot-memory budget.
func E6WriteRead(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E6 — Prop 6: write-read model rounds and memory",
		"tree", "k", "rounds", "bound", "mem-bits", "budget", "planner-reads")
	var out Outcome
	for _, tr := range workloadTrees(cfg) {
		for _, k := range []int{4, 16} {
			e, err := writeread.NewEngine(tr, k)
			if err != nil {
				return nil, out, err
			}
			res, err := e.Run(0)
			if err != nil {
				return nil, out, err
			}
			bound := bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree())
			tb.AddRow(tr.String(), k, res.Rounds, bound,
				res.MaxRobotMemoryBits, e.MemoryModelBits(), res.PlannerReads)
			out.check(res.FullyExplored && res.AllAtRoot, "E6: %s k=%d incomplete", tr, k)
			out.check(float64(res.Rounds) <= bound,
				"E6: %s k=%d: %d rounds > %.1f", tr, k, res.Rounds, bound)
			out.check(res.MaxRobotMemoryBits <= e.MemoryModelBits(),
				"E6: %s k=%d: memory %d > budget %d", tr, k, res.MaxRobotMemoryBits, e.MemoryModelBits())
		}
	}
	return tb, out, nil
}

// E7Breakdowns runs BFDN under adversarial move masks (§4.2) and checks the
// Proposition 7 allowed-move budget.
func E7Breakdowns(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E7 — Prop 7: allowed-move average A(M) at completion vs 2n/k + D²(logk+3)",
		"tree", "k", "schedule", "A(M)", "bound", "rounds")
	var out Outcome
	k := 8
	for _, tr := range workloadTrees(cfg) {
		schedules := []struct {
			name string
			s    adversary.Schedule
		}{
			{"none", adversary.AllowAll{}},
			{"bernoulli-0.5", &adversary.Bernoulli{P: 0.5, K: k, Seed: cfg.Seed}},
			{"round-robin", &adversary.RoundRobinBlock{K: k}},
			{"blackout-half", &adversary.Blackout{
				Robots: map[int]bool{0: true, 1: true, 2: true, 3: true},
				From:   0, To: 1 << 30,
			}},
		}
		for _, sc := range schedules {
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				return nil, out, err
			}
			res, err := adversary.RunUntilExplored(w, adversary.New(k, sc.s), 50_000_000)
			if err != nil {
				return nil, out, err
			}
			bound := bounds.Proposition7(tr.N(), tr.Depth(), k)
			tb.AddRow(tr.String(), k, sc.name, res.AllowedAverage, bound, res.Rounds)
			out.check(res.FullyExplored, "E7: %s %s: incomplete", tr, sc.name)
			out.check(res.AllowedAverage <= bound,
				"E7: %s %s: A(M)=%.1f > %.1f", tr, sc.name, res.AllowedAverage, bound)
		}
	}
	return tb, out, nil
}

// E8GridGraphs explores grid graphs with rectangular obstacles (§4.3) and
// checks the Proposition 9 bound.
func E8GridGraphs(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E8 — Prop 9: grid-with-obstacles exploration vs 2m/k + D²(min{logΔ,logk}+3)",
		"grid", "m", "D", "k", "rounds", "bound", "tree-edges", "closed")
	var out Outcome
	rng := cfg.rng(8)
	grids := make([]*graph.Grid, 0, 4)
	g1, err := graph.NewGrid(12*cfg.Scale, 12*cfg.Scale, nil)
	if err != nil {
		return nil, out, err
	}
	grids = append(grids, g1)
	g2, err := graph.NewGrid(16*cfg.Scale, 10*cfg.Scale, []graph.Rect{{X0: 3, Y0: 2, X1: 7, Y1: 6}})
	if err != nil {
		return nil, out, err
	}
	grids = append(grids, g2)
	for i := 0; i < 2; i++ {
		g, err := graph.RandomGrid(14*cfg.Scale, 14*cfg.Scale, 6, 4, rng)
		if err != nil {
			return nil, out, err
		}
		grids = append(grids, g)
	}
	for _, gd := range grids {
		for _, k := range []int{2, 8, 32} {
			e, err := graph.NewExplorer(gd.G, k)
			if err != nil {
				return nil, out, err
			}
			res, err := e.Run(0)
			if err != nil {
				return nil, out, err
			}
			bound := bounds.Proposition9(gd.G.M(), gd.G.Eccentricity(), k, gd.G.MaxDegree())
			name := "grid"
			tb.AddRow(name, gd.G.M(), gd.G.Eccentricity(), k, res.Rounds, bound,
				res.TreeEdges, res.ClosedEdges)
			out.check(res.AllEdgesVisited && res.AllAtOrigin, "E8: grid k=%d incomplete", k)
			out.check(float64(res.Rounds) <= bound,
				"E8: grid m=%d k=%d: %d rounds > %.1f", gd.G.M(), k, res.Rounds, bound)
			out.check(res.TreeEdges == gd.G.N()-1,
				"E8: BFS tree has %d edges, want %d", res.TreeEdges, gd.G.N()-1)
		}
	}
	return tb, out, nil
}

// E9Recursive compares BFDN_ℓ for ℓ ∈ {1, 2, 3} on deep trees against
// Theorem 10 and against plain BFDN (the crossover claim n/k^{1/ℓ} < D²).
func E9Recursive(cfg Config) (*table.Table, Outcome, error) {
	tb := table.New("E9 — Theorem 10: BFDN_ℓ on deep trees",
		"tree", "k", "ℓ", "rounds", "bound", "util")
	var out Outcome
	deep := []*tree.Tree{
		tree.Spider(4, 120*cfg.Scale),
		tree.Comb(100*cfg.Scale, 3),
		tree.Random(600*cfg.Scale, 150*cfg.Scale, cfg.rng(9)),
		tree.Path(300 * cfg.Scale),
	}
	for _, tr := range deep {
		for _, k := range []int{16, 64} {
			for _, ell := range []int{1, 2, 3} {
				alg, err := recursive.NewBFDNL(k, ell)
				if err != nil {
					return nil, out, err
				}
				res, err := run(tr, k, alg)
				if err != nil {
					return nil, out, err
				}
				bound := bounds.Theorem10(tr.N(), tr.Depth(), k, tr.MaxDegree(), ell)
				tb.AddRow(tr.String(), k, ell, res.Rounds, bound, float64(res.Rounds)/bound)
				out.check(float64(res.Rounds) <= bound,
					"E9: %s k=%d ℓ=%d: %d rounds > %.1f", tr, k, ell, res.Rounds, bound)
			}
		}
	}
	return tb, out, nil
}
