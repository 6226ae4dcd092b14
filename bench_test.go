package bfdn

// The bench harness regenerates every experiment in the paper-reproduction
// index of DESIGN.md (the paper is a theory announcement: its single figure
// and each theorem/proposition are the artifacts; see EXPERIMENTS.md for
// paper-vs-measured). Each BenchmarkE*/BenchmarkA* runs the corresponding
// experiment from internal/exp, fails on any violated paper prediction, and
// reports the number of predictions checked. The remaining benchmarks are
// engine micro-benchmarks (cost per explored node).

import (
	"fmt"
	"math/rand"
	"testing"

	"bfdn/internal/core"
	"bfdn/internal/cte"
	"bfdn/internal/exp"
	"bfdn/internal/potential"
	"bfdn/internal/recursive"
	"bfdn/internal/sim"
	"bfdn/internal/sweep"
	"bfdn/internal/tree"
	"bfdn/internal/treemining"
	"bfdn/internal/urns"
	"bfdn/internal/writeread"
)

func benchConfig() exp.Config { return exp.Config{Seed: 1, Scale: 1} }

func runExperiment(b *testing.B, f func(exp.Config) (checks, violations int, err error)) {
	b.Helper()
	var checks int
	for i := 0; i < b.N; i++ {
		c, v, err := f(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if v > 0 {
			b.Fatalf("%d paper predictions violated", v)
		}
		checks = c
	}
	b.ReportMetric(float64(checks), "predictions")
}

// BenchmarkE1Theorem1Bound regenerates experiment E1: BFDN runtime vs the
// Theorem 1 guarantee across the workload families.
func BenchmarkE1Theorem1Bound(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E1Theorem1(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE2Figure1Regions regenerates Figure 1 (analytic region map plus
// the empirical winner map over implemented algorithms).
func BenchmarkE2Figure1Regions(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, _, out, err := exp.E2Figure1(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE3UrnsGame regenerates E3: the balls-in-urns game vs Theorem 3.
func BenchmarkE3UrnsGame(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E3Urns(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE4Lemma2Reanchors regenerates E4: per-depth re-anchor counts.
func BenchmarkE4Lemma2Reanchors(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E4Lemma2(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE5Claims regenerates E5: Claims 1–3 instrumentation.
func BenchmarkE5Claims(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E5Claims(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE6WriteRead regenerates E6: the §4.1 write-read model vs Prop 6.
func BenchmarkE6WriteRead(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E6WriteRead(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE7Breakdowns regenerates E7: adversarial break-downs vs Prop 7.
func BenchmarkE7Breakdowns(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E7Breakdowns(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE8GridGraphs regenerates E8: grid graphs vs Prop 9.
func BenchmarkE8GridGraphs(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E8GridGraphs(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE9RecursiveBFDN regenerates E9: BFDN_ℓ vs Theorem 10.
func BenchmarkE9RecursiveBFDN(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E9Recursive(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE10CTEComparison regenerates E10: overhead vs CTE and offline.
func BenchmarkE10CTEComparison(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E10CTEComparison(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE11ResourceAllocation regenerates E11: worker reassignment.
func BenchmarkE11ResourceAllocation(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E11ResourceAllocation(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE12OpenDirections regenerates E12: the level-wise O(D²)
// algorithm in the k ≥ n/D regime of the paper's open-directions section.
func BenchmarkE12OpenDirections(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E12OpenDirections(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE13ContinuousTime regenerates E13: Remark 8's continuous-time
// relaxation with heterogeneous robot speeds.
func BenchmarkE13ContinuousTime(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E13ContinuousTime(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE14CompetitiveRatio regenerates E14: the paper's original
// competitive-ratio metric across k.
func BenchmarkE14CompetitiveRatio(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E14CompetitiveRatio(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE15FourWay regenerates E15: the four-way BFDN / CTE /
// Tree-Mining / Potential race on the CTE-hard families.
func BenchmarkE15FourWay(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E15FourWay(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkE16AsyncGuarantee regenerates E16: the asynchronous guarantee
// and continuous-time lower bound on the CTE-hard families, raced against
// synchronous BFDN.
func BenchmarkE16AsyncGuarantee(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.E16AsyncGuarantee(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkA1ReanchorPolicy regenerates ablation A1: the Reanchor rule.
func BenchmarkA1ReanchorPolicy(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.A1ReanchorPolicy(cfg)
		return out.Checks, out.Violations, err
	})
}

// BenchmarkA2ReturnToRoot regenerates ablation A2: return-to-root vs
// shortcut re-anchoring.
func BenchmarkA2ReturnToRoot(b *testing.B) {
	runExperiment(b, func(cfg exp.Config) (int, int, error) {
		_, out, err := exp.A2ReturnToRoot(cfg)
		return out.Checks, out.Violations, err
	})
}

// --- sweep-engine benchmarks ---------------------------------------------

// e14SweepGrid is the E14 workload as a sweep grid: 3 tree families ×
// k ∈ {2, 8, 32, 128} × {BFDN, CTE} — the sweep the competitive-ratio
// experiment and the k-scaling comparisons of the follow-up literature run.
func e14SweepGrid(b *testing.B) []sweep.Point {
	b.Helper()
	rng := benchRng()
	trees := []*tree.Tree{
		tree.Random(4000, 12, rng),
		tree.Random(1200, 60, rng),
		tree.UnevenPaths(64, 40),
	}
	var pts []sweep.Point
	for _, tr := range trees {
		for _, k := range []int{2, 8, 32, 128} {
			pts = append(pts,
				sweep.Point{Tree: tr, K: k, NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
					return core.NewAlgorithm(k)
				}, Name: "bfdn"},
				sweep.Point{Tree: tr, K: k, NewAlgorithm: func(k int, _ *rand.Rand) sim.Algorithm {
					return cte.New(k)
				}, Name: "cte"})
		}
	}
	return pts
}

// BenchmarkSweepE14 runs the E14 grid through the sweep engine at 1 and 8
// workers; points/sec is the headline throughput metric and the 8-vs-1
// ratio measures parallel scaling (≈ core count on unloaded hardware).
func BenchmarkSweepE14(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pts := e14SweepGrid(b)
			b.ReportAllocs()
			b.ResetTimer()
			var last sweep.Stats
			for i := 0; i < b.N; i++ {
				results, stats := sweep.Run(pts, sweep.Options{Workers: workers, BaseSeed: 1})
				if err := sweep.JoinErrors(results); err != nil {
					b.Fatal(err)
				}
				last = stats
			}
			b.ReportMetric(last.PointsPerSec, "points/sec")
			b.ReportMetric(last.AllocsPerPoint, "allocs/point")
		})
	}
}

// benchSweepExplore executes b.N identical runs as one sweep batch of
// points named name, so the worker's world and algorithm are recycled via
// Reset across iterations — the engine port of the fresh-world
// micro-benchmarks below.
func benchSweepExplore(b *testing.B, t *tree.Tree, k int, name string, factory func(int, *rand.Rand) sim.Algorithm) {
	b.Helper()
	pts := make([]sweep.Point, b.N)
	for i := range pts {
		pts[i] = sweep.Point{Tree: t, K: k, NewAlgorithm: factory, Name: name}
	}
	b.ReportAllocs()
	b.ResetTimer()
	results, stats := sweep.Run(pts, sweep.Options{Workers: 1, BaseSeed: 1})
	if err := sweep.JoinErrors(results); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(t.N()), "nodes")
	b.ReportMetric(stats.AllocsPerPoint, "allocs/point")
}

// BenchmarkBFDNExploreSweep is BenchmarkBFDNExplore on the sweep engine's
// zero-allocation World.Reset path; the allocs/op delta against the fresh
// variant is the world-recycling saving.
func BenchmarkBFDNExploreSweep(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	benchSweepExplore(b, t, 64, "bfdn",
		func(k int, _ *rand.Rand) sim.Algorithm { return core.NewAlgorithm(k) })
}

// BenchmarkCTEExploreSweep is the CTE workload on the engine's reuse path.
func BenchmarkCTEExploreSweep(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	benchSweepExplore(b, t, 64, "cte",
		func(k int, _ *rand.Rand) sim.Algorithm { return cte.New(k) })
}

// BenchmarkTreeMiningExploreSweep is the Tree-Mining workload on the
// engine's reuse path.
func BenchmarkTreeMiningExploreSweep(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	benchSweepExplore(b, t, 64, "treemining",
		func(k int, _ *rand.Rand) sim.Algorithm { return treemining.New(k) })
}

// BenchmarkPotentialExploreSweep is the Potential-Function workload on the
// engine's reuse path.
func BenchmarkPotentialExploreSweep(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	benchSweepExplore(b, t, 64, "potential",
		func(k int, _ *rand.Rand) sim.Algorithm { return potential.New(k) })
}

// --- engine micro-benchmarks ---------------------------------------------

func benchTree(b *testing.B, n, d int) *tree.Tree {
	b.Helper()
	t, err := tree.Generate(tree.FamilyRandom, n, d, benchRng())
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func benchRng() *rand.Rand { return rand.New(rand.NewSource(12345)) }

// BenchmarkBFDNExplore measures full BFDN runs on a 50k-node tree with 64
// robots; ns/op divided by n is the per-node simulation cost. Each run pays
// for a fresh world — compare allocs/op against BenchmarkBFDNExploreSweep.
func BenchmarkBFDNExplore(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(t, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, core.NewAlgorithm(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.N()), "nodes")
}

// BenchmarkCTEExplore is the same workload under the CTE baseline.
func BenchmarkCTEExplore(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(t, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, cte.New(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.N()), "nodes")
}

// BenchmarkTreeMiningExplore is the same workload under Tree-Mining.
func BenchmarkTreeMiningExplore(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(t, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, treemining.New(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.N()), "nodes")
}

// BenchmarkPotentialExplore is the same workload under the Potential
// Function Method.
func BenchmarkPotentialExplore(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(t, 64)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, potential.New(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.N()), "nodes")
}

// BenchmarkBFDNL2Explore is the same workload under BFDN_2.
func BenchmarkBFDNL2Explore(b *testing.B) {
	t := benchTree(b, 50_000, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := sim.NewWorld(t, 64)
		if err != nil {
			b.Fatal(err)
		}
		alg, err := recursive.NewBFDNL(64, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(w, alg, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.N()), "nodes")
}

// BenchmarkWriteReadExplore measures the distributed engine on a 20k tree.
func BenchmarkWriteReadExplore(b *testing.B) {
	t := benchTree(b, 20_000, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := writeread.NewEngine(t, 16)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.N()), "nodes")
}

// BenchmarkUrnsGame measures one optimal-adversary play at k = 4096.
func BenchmarkUrnsGame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		board, err := urns.NewBoard(4096, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := urns.Play(board, urns.LeastLoadedPlayer{}, urns.StrategicAdversary{}, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeGeneration measures the random-tree generator at 100k nodes.
func BenchmarkTreeGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tree.Generate(tree.FamilyRandom, 100_000, 50, benchRng()); err != nil {
			b.Fatal(err)
		}
	}
}
