package bfdn

import (
	"context"

	"bfdn/internal/trace"
	"bfdn/internal/tree"
)

// Trace holds a recorded exploration run for inspection and rendering.
type Trace struct {
	rec *trace.Recorder
	t   *tree.Tree
}

// ExploreTraced is Explore with per-round recording: it additionally
// returns a Trace of the run. every limits recording to one frame per that
// many rounds (≤ 1 records all). Break-down schedules and checkpointing
// are not supported.
func ExploreTraced(t *Tree, k int, every int, opts ...Option) (*Report, *Trace, error) {
	rep, rec, err := explore(context.Background(), t, k, max(every, 1), opts)
	if err != nil {
		return nil, nil, err
	}
	return rep, &Trace{rec: rec, t: t.t}, nil
}

// Frames reports the number of recorded frames.
func (tr *Trace) Frames() int { return len(tr.rec.Frames) }

// FrameRound reports the round index of frame i.
func (tr *Trace) FrameRound(i int) int { return tr.rec.Frames[i].Round }

// FrameExplored reports the number of explored nodes at frame i.
func (tr *Trace) FrameExplored(i int) int { return tr.rec.Frames[i].Explored }

// RenderFrame draws frame i as an indented tree with explored markers ('*'
// explored, '.' hidden) and robot positions. Use only for small trees.
func (tr *Trace) RenderFrame(i int) string {
	f := tr.rec.Frames[i]
	return trace.RenderTree(tr.t, f, func(v tree.NodeID) bool {
		return tr.rec.ExploredBy(v, f.Round)
	})
}

// ProgressSparkline renders the explored-over-time curve as a one-line
// bar chart of the given width.
func (tr *Trace) ProgressSparkline(width int) string {
	return trace.Sparkline(tr.rec.ProgressCurve(), width)
}

// RobotDepths returns the per-robot depths at frame i.
func (tr *Trace) RobotDepths(i int) []int {
	f := tr.rec.Frames[i]
	out := make([]int, len(f.Positions))
	for j, p := range f.Positions {
		out[j] = tr.t.DepthOf(p)
	}
	return out
}
