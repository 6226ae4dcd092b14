// Package trace records and renders exploration runs: per-round robot
// positions, the exploration progress curve, and an ASCII rendering of
// small trees with robot markers — the debugging and demo layer used by
// cmd/bfdnsim -trace and examples/visualize. It implements no part of the
// paper; it exists to make the simulated model (internal/sim, the
// synchronous model of §2) visible run by run.
package trace

import (
	"strconv"
	"strings"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// Frame is the state at the start of one round.
type Frame struct {
	Round     int
	Positions []tree.NodeID
	Explored  int
}

// Recorder records a run as a round hook: a Frame at the start of every
// kept round, and, per node, the round at which the node was explored, so
// frames can be re-rendered with historically accurate explored markers.
type Recorder struct {
	w      *sim.World
	every  int
	Frames []Frame
	// exploredAt[v] is the round at the start of which v was already
	// explored (the root at 0).
	exploredAt map[tree.NodeID]int
}

// NewRecorder starts recording a run of w: it records w's current state as
// the start frame, and the run keeps one frame per every rounds (≤ 1 keeps
// all).
func NewRecorder(w *sim.World, every int) *Recorder {
	r := &Recorder{w: w, every: max(every, 1), exploredAt: map[tree.NodeID]int{tree.Root: 0}}
	r.frame()
	return r
}

// frame appends the world's state at the start of the current round.
func (r *Recorder) frame() {
	r.Frames = append(r.Frames, Frame{
		Round:     r.w.Round(),
		Positions: r.w.View().Positions(nil),
		Explored:  r.w.ExploredCount(),
	})
}

// Hook returns the recorder as a round hook in front of next, the run's
// stop rule (nil: the run ends at the first still round). It asks next
// first; only a round after which the run goes on is recorded: its explore
// events as explored at the next round, and that round's frame.
func (r *Recorder) Hook(next sim.RoundHook) sim.RoundHook {
	return func(moves []sim.Move, events []sim.ExploreEvent, moved bool) (bool, error) {
		done, err := !moved, error(nil)
		if next != nil {
			done, err = next(moves, events, moved)
		}
		if done || err != nil {
			return done, err
		}
		round := r.w.Round()
		for _, e := range events {
			r.exploredAt[e.Child] = round
		}
		if round%r.every == 0 {
			r.frame()
		}
		return false, nil
	}
}

// ExploredBy reports whether node v was explored at the start of the given
// round.
func (r *Recorder) ExploredBy(v tree.NodeID, round int) bool {
	at, ok := r.exploredAt[v]
	return ok && at <= round
}

// ProgressCurve returns the explored-node counts of the recorded frames.
func (r *Recorder) ProgressCurve() []int {
	out := make([]int, len(r.Frames))
	for i, f := range r.Frames {
		out[i] = f.Explored
	}
	return out
}

// RenderTree draws the tree as an indented outline with per-node markers:
// '*' for explored nodes, '.' for hidden ones, and the list of robots
// standing there. Intended for trees of at most a few hundred nodes.
func RenderTree(t *tree.Tree, f Frame, explored func(tree.NodeID) bool) string {
	robotsAt := make(map[tree.NodeID][]int)
	for i, p := range f.Positions {
		robotsAt[p] = append(robotsAt[p], i)
	}
	var sb strings.Builder
	var walk func(v tree.NodeID, depth int)
	walk = func(v tree.NodeID, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if explored == nil || explored(v) {
			sb.WriteByte('*')
		} else {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.Itoa(int(v)))
		if robots := robotsAt[v]; len(robots) > 0 {
			sb.WriteString(" <-[")
			for j, rb := range robots {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString("R" + strconv.Itoa(rb))
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
		for _, c := range t.Children(v) {
			walk(c, depth+1)
		}
	}
	walk(tree.Root, 0)
	return sb.String()
}

// Sparkline renders a numeric series as a one-line bar chart of the given
// width, scaled to the series maximum.
func Sparkline(series []int, width int) string {
	if len(series) == 0 || width < 1 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	maxVal := 1
	for _, v := range series {
		if v > maxVal {
			maxVal = v
		}
	}
	var sb strings.Builder
	for c := 0; c < width; c++ {
		idx := c * (len(series) - 1) / max(1, width-1)
		v := series[idx]
		lvl := v * (len(levels) - 1) / maxVal
		sb.WriteRune(levels[lvl])
	}
	return sb.String()
}
