package bfdn

import (
	"reflect"
	"strings"
	"testing"
)

func TestExploreTraced(t *testing.T) {
	tr, err := GenerateTree(FamilyComb, 30, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, trc, err := ExploreTraced(tr, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored {
		t.Fatal("incomplete")
	}
	if trc.Frames() < rep.Rounds {
		t.Errorf("frames = %d, rounds = %d", trc.Frames(), rep.Rounds)
	}
	// First frame: only the root explored; everyone at depth 0.
	if got := trc.FrameExplored(0); got != 1 {
		t.Errorf("frame 0 explored = %d", got)
	}
	for _, d := range trc.RobotDepths(0) {
		if d != 0 {
			t.Error("frame 0 robot below root")
		}
	}
	// Last frame: everything explored.
	if got := trc.FrameExplored(trc.Frames() - 1); got != tr.N() {
		t.Errorf("last frame explored = %d, want %d", got, tr.N())
	}
	out := trc.RenderFrame(0)
	if !strings.Contains(out, "*0") || !strings.Contains(out, ".1") {
		t.Errorf("frame 0 render wrong:\n%s", out)
	}
	if s := trc.ProgressSparkline(30); len([]rune(s)) != 30 {
		t.Errorf("sparkline width = %d", len([]rune(s)))
	}
}

func TestExploreTracedEverySampling(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 300, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := ExploreTraced(tr, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, sampled, err := ExploreTraced(tr, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Frames() >= all.Frames() {
		t.Errorf("sampling did not reduce frames: %d vs %d", sampled.Frames(), all.Frames())
	}
}

func TestExploreTracedAllAlgorithms(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 200, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{BFDN, BFDNRecursive, CTE, DFS, Levelwise} {
		rep, trc, err := ExploreTraced(tr, 4, 5, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if !rep.FullyExplored || trc.Frames() == 0 {
			t.Errorf("alg %d: incomplete or empty trace", alg)
		}
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithAlgorithm(Algorithm(77))); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithBreakdowns(BernoulliSchedule(0.5, 4, 1))); err == nil {
		t.Error("tracing with breakdowns accepted")
	}
}

func TestExploreLevelwiseAlgorithm(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 500, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := 64 // ≥ n/D: the O(D²) regime
	rep, err := Explore(tr, k, WithAlgorithm(Levelwise))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyExplored || !rep.AllAtRoot {
		t.Fatal("incomplete")
	}
	if float64(rep.Rounds) > rep.Bound {
		t.Errorf("rounds %d exceed level-wise bound %.1f", rep.Rounds, rep.Bound)
	}
}

// TestExploreTracedHonorsProgressAndCheckpoint: ExploreTraced streams
// progress to a WithProgress observer exactly as Explore does, and refuses
// WithCheckpoint instead of silently running without a journal.
func TestExploreTracedHonorsProgressAndCheckpoint(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 300, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []Progress
	if _, err := Explore(tr, 4, WithProgress(func(p Progress) { want = append(want, p) })); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithProgress(func(p Progress) { got = append(got, p) })); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("ExploreTraced reported %d progress updates, Explore %d; they must match", len(got), len(want))
	}
	js, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExploreTraced(tr, 4, 1, WithCheckpoint(js, 10)); err == nil {
		t.Error("ExploreTraced accepted WithCheckpoint")
	}
	if jobs, err := js.Jobs(); err != nil || len(jobs) != 0 {
		t.Errorf("store holds %d jobs after a refused traced run (err %v), want 0", len(jobs), err)
	}
}
