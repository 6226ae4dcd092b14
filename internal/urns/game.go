// Package urns implements the two-player zero-sum balls-in-urns game of §3
// of the paper, the key ingredient in the analysis of BFDN.
//
// The board is a list of k urns holding k balls in total (initially one
// each, or a custom configuration). At each step the adversary picks a ball
// from a non-empty urn a_t, then the player chooses an urn b_t and moves the
// ball there. U_t is the set of urns never chosen by the adversary; the game
// stops as soon as every urn of U_t holds at least Δ balls (for Δ ≥ k this
// degenerates to "U_t is empty"). The player wants the game to stop early,
// the adversary to prolong it. Theorem 3: the least-loaded-fresh player
// strategy ends the game within k·min{log Δ, log k} + 2k steps against any
// adversary.
package urns

import (
	"container/heap"
	"fmt"
)

// Board is the mutable game state.
type Board struct {
	loads []int
	fresh []bool // fresh[i]: i ∈ U_t (never chosen by the adversary)
	delta int

	freshCount     int
	deficientFresh int // fresh urns with load < Δ

	// min-heap of (load, urn) entries over fresh urns, lazily invalidated;
	// used by the least-loaded player in O(log k) amortized.
	h loadHeap
}

// NewBoard returns the standard initial board: k urns with one ball each.
func NewBoard(k, delta int) (*Board, error) {
	if k < 1 {
		return nil, fmt.Errorf("urns: need k ≥ 1 urns, got %d", k)
	}
	loads := make([]int, k)
	for i := range loads {
		loads[i] = 1
	}
	return NewBoardFromLoads(loads, delta)
}

// NewBoardFromLoads returns a board with the given urn contents, all urns
// fresh. This supports the modified initial condition used in the proof of
// Lemma 2 (one urn with k−u balls and u urns with one ball each).
func NewBoardFromLoads(loads []int, delta int) (*Board, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("urns: need at least one urn")
	}
	if delta < 1 {
		return nil, fmt.Errorf("urns: need Δ ≥ 1, got %d", delta)
	}
	b := &Board{
		loads:      append([]int(nil), loads...),
		fresh:      make([]bool, len(loads)),
		delta:      delta,
		freshCount: len(loads),
	}
	for i, l := range b.loads {
		if l < 0 {
			return nil, fmt.Errorf("urns: urn %d has negative load %d", i, l)
		}
		b.fresh[i] = true
		if l < delta {
			b.deficientFresh++
		}
		heap.Push(&b.h, loadEntry{urn: i, load: l})
	}
	return b, nil
}

// K reports the number of urns.
func (b *Board) K() int { return len(b.loads) }

// Load reports the number of balls in urn i.
func (b *Board) Load(i int) int { return b.loads[i] }

// Fresh reports whether urn i has never been chosen by the adversary.
func (b *Board) Fresh(i int) bool { return b.fresh[i] }

// Stopped reports whether the stopping condition holds: every fresh urn has
// at least Δ balls.
func (b *Board) Stopped() bool { return b.deficientFresh == 0 }

func (b *Board) setLoad(i, nl int) {
	old := b.loads[i]
	b.loads[i] = nl
	if b.fresh[i] {
		if old < b.delta && nl >= b.delta {
			b.deficientFresh--
		} else if old >= b.delta && nl < b.delta {
			b.deficientFresh++
		}
		heap.Push(&b.h, loadEntry{urn: i, load: nl})
	}
}

func (b *Board) unfresh(i int) {
	if !b.fresh[i] {
		return
	}
	b.fresh[i] = false
	b.freshCount--
	if b.loads[i] < b.delta {
		b.deficientFresh--
	}
}

// LeastLoadedFresh returns the fresh urn with the fewest balls, excluding
// urn `excl` (pass -1 for no exclusion). ok is false if no such urn exists.
func (b *Board) LeastLoadedFresh(excl int) (int, bool) {
	var held *loadEntry
	for b.h.Len() > 0 {
		e := b.h[0]
		if !b.fresh[e.urn] || e.load != b.loads[e.urn] {
			heap.Pop(&b.h) // stale
			continue
		}
		if e.urn == excl {
			ee := heap.Pop(&b.h).(loadEntry)
			held = &ee
			continue
		}
		if held != nil {
			heap.Push(&b.h, *held)
		}
		return e.urn, true
	}
	if held != nil {
		heap.Push(&b.h, *held)
	}
	return 0, false
}

type loadEntry struct {
	urn  int
	load int
}

type loadHeap []loadEntry

func (h loadHeap) Len() int            { return len(h) }
func (h loadHeap) Less(i, j int) bool  { return h[i].load < h[j].load }
func (h loadHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x interface{}) { *h = append(*h, x.(loadEntry)) }
func (h *loadHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Player chooses the destination urn b_t given the board and the adversary's
// choice a_t (whose urn is already marked non-fresh).
type Player interface {
	Choose(b *Board, a int) int
}

// Adversary chooses the source urn a_t; it must return an urn with at least
// one ball.
type Adversary interface {
	Choose(b *Board) int
}

// Step records one move of a play.
type Step struct {
	From, To int
}

// Result summarizes a completed play.
type Result struct {
	Steps int
	// FinalFresh is u at termination.
	FinalFresh int
	// Trace holds the moves when tracing was requested; nil otherwise.
	Trace []Step
}

// Play runs the game to completion and returns the number of steps. maxSteps
// guards against non-terminating strategy pairs (≤ 0 selects k·(k+Δ)+k+1, a
// generous cap above any legal play). trace enables move recording.
func Play(b *Board, p Player, a Adversary, maxSteps int, trace bool) (Result, error) {
	k := b.K()
	if maxSteps <= 0 {
		maxSteps = k*(k+b.delta) + k + 1
	}
	var res Result
	for t := 0; t < maxSteps; t++ {
		if b.Stopped() {
			res.Steps = t
			res.FinalFresh = b.freshCount
			return res, nil
		}
		src := a.Choose(b)
		if src < 0 || src >= k || b.loads[src] == 0 {
			return Result{}, fmt.Errorf("urns: step %d: adversary chose invalid urn %d", t, src)
		}
		b.unfresh(src)
		dst := p.Choose(b, src)
		if dst < 0 || dst >= k {
			return Result{}, fmt.Errorf("urns: step %d: player chose invalid urn %d", t, dst)
		}
		b.setLoad(src, b.loads[src]-1)
		b.setLoad(dst, b.loads[dst]+1)
		if trace {
			res.Trace = append(res.Trace, Step{From: src, To: dst})
		}
	}
	return Result{}, fmt.Errorf("urns: game did not stop within %d steps", maxSteps)
}
