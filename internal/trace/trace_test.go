package trace

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bfdn/internal/core"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

func record(t *testing.T, tr *tree.Tree, k, every int) (*Recorder, *sim.World) {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, every)
	if _, err := sim.RunContext(context.Background(), w, core.NewAlgorithm(k), 0, nil, rec.Hook(nil)); err != nil {
		t.Fatal(err)
	}
	return rec, w
}

func TestRecorderCapturesEveryRound(t *testing.T) {
	tr := tree.Random(80, 8, rand.New(rand.NewSource(3)))
	rec, w := record(t, tr, 4, 1)
	if len(rec.Frames) != w.Metrics().TotalRounds {
		t.Errorf("frames = %d, rounds = %d", len(rec.Frames), w.Metrics().TotalRounds)
	}
	// Frame 0: everyone at the root, one node explored.
	f0 := rec.Frames[0]
	if f0.Explored != 1 {
		t.Errorf("frame 0 explored = %d", f0.Explored)
	}
	for _, p := range f0.Positions {
		if p != tree.Root {
			t.Error("frame 0 robot not at root")
		}
	}
	// Progress curve is non-decreasing and ends at n.
	curve := rec.ProgressCurve()
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("progress decreased at %d", i)
		}
	}
	if curve[len(curve)-1] != tr.N() {
		t.Errorf("final explored = %d, want %d", curve[len(curve)-1], tr.N())
	}
}

func TestRecorderEvery(t *testing.T) {
	tr := tree.Random(80, 8, rand.New(rand.NewSource(3)))
	rec1, _ := record(t, tr, 4, 1)
	rec5, _ := record(t, tr, 4, 5)
	if len(rec5.Frames) >= len(rec1.Frames) {
		t.Errorf("Every=5 recorded %d frames, Every=1 %d", len(rec5.Frames), len(rec1.Frames))
	}
}

func TestRenderTree(t *testing.T) {
	b := tree.NewBuilder()
	a := b.AddChild(tree.Root)
	b.AddChild(tree.Root)
	c := b.AddChild(a)
	tr := b.Build()
	_ = c
	f := Frame{Positions: []tree.NodeID{a, tree.Root}}
	out := RenderTree(tr, f, func(v tree.NodeID) bool { return v != 3 })
	if !strings.Contains(out, "*1 <-[R0]") {
		t.Errorf("missing robot marker:\n%s", out)
	}
	if !strings.Contains(out, "*0 <-[R1]") {
		t.Errorf("missing root robot:\n%s", out)
	}
	if !strings.Contains(out, ".3") {
		t.Errorf("missing hidden-node marker:\n%s", out)
	}
	// Indentation encodes depth: node 3 (depth 2) is indented twice.
	if !strings.Contains(out, "    .3") {
		t.Errorf("bad indentation:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 9)
	if len([]rune(s)) != 9 {
		t.Fatalf("width = %d, want 9", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[8] != '█' {
		t.Errorf("sparkline ends = %c..%c", runes[0], runes[8])
	}
	if Sparkline(nil, 5) != "" {
		t.Error("empty series should render empty")
	}
	if Sparkline([]int{3}, 0) != "" {
		t.Error("zero width should render empty")
	}
}
