// Package adversary implements §4.2 of the paper: collaborative exploration
// when an adversary decides, at every round and for every robot, whether the
// robot may move (M_ti = 1) or is stalled at its position (M_ti = 0).
//
// The algorithm is BFDN with one modification: only robots allowed to move
// take part in the round's assignment process, so blocked robots never
// prevent unblocked co-located robots from traversing dangling edges.
// Proposition 7: for any schedule M whose average number of allowed moves
// per robot A(M) reaches 2n/k + D²(log k + 3), all edges have been visited.
package adversary

import (
	"context"
	"math/rand"

	"bfdn/internal/core"
	"bfdn/internal/sim"
)

// Schedule decides which robots may move each round. An implementation must
// answer repeated queries of one (round, robot) pair the same way — the
// engine may query a pair multiple times within a round. An oblivious
// schedule is a function of (round, robot) alone; a state-adaptive one
// (Remark 8) may read the world's view, which shows the round's start state
// when the round's first query arrives.
type Schedule interface {
	Allowed(round, robot int) bool
}

// AllowAll is the schedule with no break-downs.
type AllowAll struct{}

var _ Schedule = AllowAll{}

// Allowed implements Schedule.
func (AllowAll) Allowed(int, int) bool { return true }

// Bernoulli blocks each (round, robot) pair independently with probability
// 1−P. It precomputes per-round masks lazily from a seed so that repeated
// queries are consistent.
type Bernoulli struct {
	P    float64
	K    int
	Seed int64

	masks [][]bool
}

var _ Schedule = (*Bernoulli)(nil)

// Allowed implements Schedule.
func (b *Bernoulli) Allowed(round, robot int) bool {
	for round >= len(b.masks) {
		rng := rand.New(rand.NewSource(b.Seed + int64(len(b.masks))))
		mask := make([]bool, b.K)
		for i := range mask {
			mask[i] = rng.Float64() < b.P
		}
		b.masks = append(b.masks, mask)
	}
	return b.masks[round][robot]
}

// Blackout blocks a fixed set of robots during [From, To) and allows
// everything else; it models long single-robot failures.
type Blackout struct {
	Robots   map[int]bool
	From, To int
}

var _ Schedule = (*Blackout)(nil)

// Allowed implements Schedule.
func (s *Blackout) Allowed(round, robot int) bool {
	return !(s.Robots[robot] && round >= s.From && round < s.To)
}

// RoundRobinBlock blocks robot (round mod k) each round: a rolling failure
// that touches every robot equally.
type RoundRobinBlock struct{ K int }

var _ Schedule = (*RoundRobinBlock)(nil)

// Allowed implements Schedule.
func (s *RoundRobinBlock) Allowed(round, robot int) bool {
	return robot != round%s.K
}

// Algorithm runs BFDN under a break-down adversary's Schedule and tracks
// the allowed-move budget A(M). It implements sim.Algorithm.
type Algorithm struct {
	b        *core.BFDN
	schedule Schedule
	moves    []sim.Move
	round    int
	// allowedTotal is Σ_{t,i} M_ti over elapsed rounds.
	allowedTotal int64
	k            int
}

var _ sim.Algorithm = (*Algorithm)(nil)

// New returns a break-down-tolerant BFDN for k robots under the schedule.
func New(k int, s Schedule, opts ...core.Option) *Algorithm {
	return &Algorithm{
		b:        core.New(k, opts...),
		schedule: s,
		moves:    make([]sim.Move, k),
		k:        k,
	}
}

// allowed reports M_ti for the current round.
func (a *Algorithm) allowed(robot int) bool {
	return a.schedule.Allowed(a.round, robot)
}

// SelectMoves implements sim.Algorithm.
func (a *Algorithm) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	for i := 0; i < a.k; i++ {
		if a.allowed(i) {
			a.allowedTotal++
		}
	}
	err := a.b.DecideAllowed(v, events, a.moves, a.allowed)
	a.round++
	return a.moves, err
}

// AllowedAverage reports A(M) so far: (1/k)·Σ M_ti over elapsed rounds.
func (a *Algorithm) AllowedAverage() float64 {
	return float64(a.allowedTotal) / float64(a.k)
}

// Result summarizes a break-down run.
type Result struct {
	sim.Metrics
	// AllowedAverage is A(M) at the moment exploration completed.
	AllowedAverage float64
	FullyExplored  bool
}

// UntilExplored is the §4.2 stopping rule as a sim.RoundHook: the run ends
// once every edge has been visited, whether or not any robot moved in the
// round — the adversary may block every robot for arbitrarily many rounds,
// and robots need not return to the root, since it may stall them forever.
// A run still unexplored after maxRounds rounds ends there too, without an
// error: its Result reports FullyExplored false. Give the run loop the same
// cap.
func UntilExplored(w *sim.World, maxRounds int64) sim.RoundHook {
	return func([]sim.Move, []sim.ExploreEvent, bool) (bool, error) {
		return w.FullyExplored() || int64(w.Round()) >= maxRounds, nil
	}
}

// RunUntilExplored drives the algorithm on a fresh world until every edge
// has been visited or maxRounds > 0 rounds elapse (UntilExplored).
func RunUntilExplored(w *sim.World, a *Algorithm, maxRounds int64) (Result, error) {
	if _, err := sim.RunContext(context.Background(), w, a, maxRounds, nil, UntilExplored(w, maxRounds)); err != nil {
		return Result{}, err
	}
	return Result{
		Metrics:        w.Metrics(),
		AllowedAverage: a.AllowedAverage(),
		FullyExplored:  w.FullyExplored(),
	}, nil
}
