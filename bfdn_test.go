package bfdn

import (
	"context"
	"strings"
	"testing"
)

func TestExploreDefaultBFDN(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 2000, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored || !rep.AllAtRoot {
		t.Fatalf("incomplete: %+v", rep)
	}
	if float64(rep.Rounds) > rep.Bound {
		t.Errorf("rounds %d exceed bound %.1f", rep.Rounds, rep.Bound)
	}
	if float64(rep.Rounds) < rep.OfflineLowerBound-1 {
		t.Errorf("rounds %d below offline lower bound %.1f", rep.Rounds, rep.OfflineLowerBound)
	}
	if rep.EdgeExplorations != tr.N()-1 {
		t.Errorf("explorations = %d, want %d", rep.EdgeExplorations, tr.N()-1)
	}
}

func TestExploreWithProgress(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 800, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Progress
	rep, err := Explore(tr, 6, WithProgress(func(p Progress) { snaps = append(snaps, p) }))
	if err != nil {
		t.Fatal(err)
	}
	// The observer fires once per committed round, including all-stay rounds
	// the report's T (rounds with at least one move) does not count.
	if len(snaps) < rep.Rounds {
		t.Fatalf("observer saw %d rounds, report counts %d moving rounds", len(snaps), rep.Rounds)
	}
	for i, p := range snaps {
		if p.Round != i+1 {
			t.Fatalf("snapshot %d has round %d", i, p.Round)
		}
		if i > 0 && (p.Explored < snaps[i-1].Explored || p.Moves < snaps[i-1].Moves) {
			t.Fatalf("progress regressed at round %d: %+v after %+v", p.Round, p, snaps[i-1])
		}
	}
	last := snaps[len(snaps)-1]
	if last.Explored != tr.N() || last.Moves != rep.Moves {
		t.Fatalf("final snapshot %+v disagrees with report (n=%d, moves=%d)",
			last, tr.N(), rep.Moves)
	}
}

func TestSweepMatchesExplore(t *testing.T) {
	tr1, err := GenerateTree(FamilyRandom, 1200, 18, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := GenerateTree(FamilySpider, 120, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	points := []SweepPoint{
		{Tree: tr1, K: 8}, // zero value = BFDN
		{Tree: tr1, K: 8, Algorithm: CTE},
		{Tree: tr2, K: 4, Algorithm: BFDNRecursive, Ell: 3},
		{Tree: tr2, K: 3, Algorithm: DFS},
		{Tree: tr2, K: 16, Algorithm: Levelwise},
	}
	results, stats, err := SweepContext(context.Background(), points, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != len(points) || stats.PointsPerSec <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	opts := [][]Option{
		nil,
		{WithAlgorithm(CTE)},
		{WithAlgorithm(BFDNRecursive), WithEll(3)},
		{WithAlgorithm(DFS)},
		{WithAlgorithm(Levelwise)},
	}
	for i, p := range points {
		if results[i].Err != nil {
			t.Fatalf("point %d: %v", i, results[i].Err)
		}
		want, err := Explore(p.Tree, p.K, opts[i]...)
		if err != nil {
			t.Fatal(err)
		}
		if got := results[i].Report; got != *want {
			t.Errorf("point %d: sweep report %+v differs from Explore %+v", i, got, *want)
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 800, 14, 5)
	if err != nil {
		t.Fatal(err)
	}
	var points []SweepPoint
	for _, k := range []int{2, 4, 8, 16} {
		points = append(points, SweepPoint{Tree: tr, K: k}, SweepPoint{Tree: tr, K: k, Algorithm: CTE})
	}
	base, _, err := SweepContext(context.Background(), points, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := SweepContext(context.Background(), points, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i].Report != again[i].Report {
			t.Errorf("point %d differs across worker counts", i)
		}
	}
}

func TestSweepRejectsInvalidPoints(t *testing.T) {
	tr, err := GenerateTree(FamilyPath, 10, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SweepContext(context.Background(), []SweepPoint{{Tree: nil, K: 2}}, 1, 0); err == nil {
		t.Error("nil tree accepted")
	}
	if _, _, err := SweepContext(context.Background(), []SweepPoint{{Tree: tr, K: 2, Algorithm: Algorithm(99)}}, 1, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := SweepContext(context.Background(), []SweepPoint{{Tree: tr, K: 2, Algorithm: BFDNRecursive, Ell: -3}}, 1, 0); err == nil {
		t.Error("invalid ell accepted")
	}
	// A bad k is a per-point runtime failure, not a validation error.
	results, _, err := SweepContext(context.Background(), []SweepPoint{{Tree: tr, K: 0}, {Tree: tr, K: 2}}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("k=0 point did not fail")
	}
	if results[1].Err != nil || !results[1].Report.FullyExplored {
		t.Errorf("healthy point affected: %+v", results[1])
	}
}

func TestExploreAllAlgorithms(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 500, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{BFDN, BFDNRecursive, CTE, DFS} {
		rep, err := Explore(tr, 9, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if !rep.FullyExplored {
			t.Errorf("alg %d: incomplete", alg)
		}
	}
	if _, err := Explore(tr, 4, WithAlgorithm(Algorithm(99))); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// k < 1 is an error for every algorithm, never a panic.
	for _, alg := range Algorithms() {
		for _, k := range []int{0, -1} {
			if _, err := Explore(tr, k, WithAlgorithm(alg)); err == nil {
				t.Errorf("%v: k=%d accepted", alg, k)
			}
		}
	}
}

func TestExploreRecursiveEll(t *testing.T) {
	tr, err := GenerateTree(FamilySpider, 800, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ell := range []int{1, 2, 3} {
		rep, err := Explore(tr, 27, WithAlgorithm(BFDNRecursive), WithEll(ell))
		if err != nil {
			t.Fatalf("ℓ=%d: %v", ell, err)
		}
		if float64(rep.Rounds) > rep.Bound {
			t.Errorf("ℓ=%d: rounds %d exceed Theorem 10 bound %.1f", ell, rep.Rounds, rep.Bound)
		}
	}
}

// TestEllAboveLimitIsAnError: an ℓ for which 2^ℓ overflows an int is refused
// by Explore and by SweepStream's up-front validation, before any point runs.
func TestEllAboveLimitIsAnError(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 300, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ell := range []int{63, 64, 1 << 30} {
		if _, err := Explore(tr, 4, WithAlgorithm(BFDNRecursive), WithEll(ell)); err == nil {
			t.Errorf("Explore: ℓ=%d accepted", ell)
		}
		ran := 0
		_, err := SweepStream(context.Background(), []SweepPoint{
			{Tree: tr, K: 2, Algorithm: BFDN},
			{Tree: tr, K: 2, Algorithm: BFDNRecursive, Ell: ell},
		}, 1, 1, func(int, SweepResult) { ran++ })
		if err == nil || ran != 0 {
			t.Errorf("SweepStream: ℓ=%d: err %v after %d points; want an error before any point", ell, err, ran)
		}
	}
}

func TestExploreShortcutOption(t *testing.T) {
	tr, err := GenerateTree(FamilySpider, 600, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(tr, 6, WithShortcutReanchor())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored {
		t.Error("incomplete with shortcut")
	}
}

func TestExploreWithBreakdowns(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 300, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	k := 6
	rep, err := Explore(tr, k, WithBreakdowns(BernoulliSchedule(0.5, k, 11)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored {
		t.Error("breakdown run incomplete")
	}
	if _, err := Explore(tr, k, WithBreakdowns(BernoulliSchedule(0.5, k, 11)), WithAlgorithm(CTE)); err == nil {
		t.Error("breakdowns with CTE accepted")
	}
}

func TestNewTree(t *testing.T) {
	tr, err := NewTree([]int32{-1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 4 || tr.Depth() != 2 || tr.MaxDegree() != 2 {
		t.Errorf("tree = %s", tr)
	}
	if _, err := NewTree([]int32{0}); err == nil {
		t.Error("invalid parents accepted")
	}
}

func TestGenerateTreeFamilies(t *testing.T) {
	for _, f := range Families() {
		tr, err := GenerateTree(f, 120, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if tr.N() < 2 {
			t.Errorf("%s: trivial tree", f)
		}
	}
	if _, err := GenerateTree(Family("bogus"), 10, 2, 1); err == nil {
		t.Error("bogus family accepted")
	}
}

func TestExploreWriteRead(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 400, 14, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExploreWriteRead(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored || !rep.AllAtRoot {
		t.Fatal("incomplete")
	}
	if float64(rep.Rounds) > rep.Bound {
		t.Errorf("rounds %d exceed bound %.1f", rep.Rounds, rep.Bound)
	}
	if rep.MaxRobotMemoryBits > rep.MemoryBudgetBits {
		t.Errorf("memory %d over budget %d", rep.MaxRobotMemoryBits, rep.MemoryBudgetBits)
	}
}

func TestExploreGrid(t *testing.T) {
	g, err := NewGrid(12, 9, []Rect{{X0: 3, Y0: 2, X1: 6, Y1: 5}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ExploreGrid(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("grid incomplete")
	}
	if rep.TreeEdges != g.Nodes()-1 {
		t.Errorf("tree edges = %d, want %d", rep.TreeEdges, g.Nodes()-1)
	}
	if rep.TreeEdges+rep.ClosedEdges != g.Edges() {
		t.Errorf("edge accounting: %d+%d != %d", rep.TreeEdges, rep.ClosedEdges, g.Edges())
	}
	if float64(rep.Rounds) > rep.Bound {
		t.Errorf("rounds %d exceed Prop 9 bound %.1f", rep.Rounds, rep.Bound)
	}
	if _, err := NewGrid(0, 5, nil); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestPlayUrnsGame(t *testing.T) {
	res, err := PlayUrnsGame(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Steps) > res.Bound {
		t.Errorf("steps %d exceed bound %.1f", res.Steps, res.Bound)
	}
	if res.Steps < 64 {
		t.Errorf("optimal adversary lasted only %d steps", res.Steps)
	}
	if _, err := PlayUrnsGame(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestAllocateWorkers(t *testing.T) {
	res, err := AllocateWorkers([]int{100, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.Reassignments) > res.Bound {
		t.Errorf("reassignments %d exceed bound %.1f", res.Reassignments, res.Bound)
	}
	if res.Makespan >= 100 {
		t.Errorf("makespan %d: no speedup from reassignment", res.Makespan)
	}
	if _, err := AllocateWorkers(nil); err == nil {
		t.Error("empty task list accepted")
	}
}

func TestBoundHelpers(t *testing.T) {
	if Theorem1Bound(1000, 10, 8, 5) <= 0 {
		t.Error("Theorem1Bound not positive")
	}
	if Theorem10Bound(1000, 10, 8, 5, 2) <= 0 {
		t.Error("Theorem10Bound not positive")
	}
	if OfflineLowerBound(1000, 10, 8) != 2*999.0/8 {
		t.Error("OfflineLowerBound wrong")
	}
}

func TestFigure1Map(t *testing.T) {
	m := Figure1Map(32, 4, 60, 1, 30, 64, 20)
	for _, sym := range []string{"B", "C", "L", "legend"} {
		if !strings.Contains(m, sym) {
			t.Errorf("map missing %q", sym)
		}
	}
}
