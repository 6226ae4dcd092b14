package recursive

import (
	"fmt"
	"math"
	"math/bits"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// BFDNL is the top-level recursive algorithm BFDN_ℓ of Definition 13: it
// runs BFDN_ℓ(k^{1/ℓ}, K, d_j) for the doubling depth schedule d_j = 2^{jℓ},
// interrupting each call right after its last iteration (without running
// deep) and continuing with the current robot positions, until exploration
// completes. If k is not an ℓ-th power, K = ⌊k^{1/ℓ}⌋^ℓ robots are used and
// the rest idle at the root.
type BFDNL struct {
	k     int
	ell   int
	kstar int
	kEff  int

	phaseJ  int
	top     Anchored
	topDD   *divideDepth // nil when ell == 1
	top1    *bfdn1       // nil when ell > 1
	moves   []sim.Move
	ranOnce bool
	homing  bool
}

var _ sim.Algorithm = (*BFDNL)(nil)

// maxEll is the largest ℓ for which 2^ℓ, the first phase's depth budget,
// fits an int: 62 on 64-bit platforms.
const maxEll = bits.UintSize - 2

// NewBFDNL builds BFDN_ℓ for k robots, with 1 ≤ ℓ ≤ 62 (30 on 32-bit
// platforms).
func NewBFDNL(k, ell int) (*BFDNL, error) {
	if k < 1 {
		return nil, fmt.Errorf("recursive: need k ≥ 1 robots, got %d", k)
	}
	if ell < 1 || ell > maxEll {
		return nil, fmt.Errorf("recursive: need 1 ≤ ℓ ≤ %d (2^ℓ must fit an int), got %d", maxEll, ell)
	}
	kstar := intRoot(k, ell)
	kEff := 1
	for i := 0; i < ell; i++ {
		kEff *= kstar
	}
	b := &BFDNL{
		k:     k,
		ell:   ell,
		kstar: kstar,
		kEff:  kEff,
		moves: make([]sim.Move, k),
	}
	b.startPhase(1)
	return b, nil
}

// intRoot returns ⌊x^{1/ell}⌋.
func intRoot(x, ell int) int {
	if ell == 1 {
		return x
	}
	r := int(math.Pow(float64(x), 1/float64(ell)))
	for pow(r+1, ell) <= x {
		r++
	}
	for r > 1 && pow(r, ell) > x {
		r--
	}
	return r
}

func pow(b, e int) int {
	p := 1
	for i := 0; i < e; i++ {
		p *= b
	}
	return p
}

// startPhase builds the phase-j instance BFDN_ℓ(k*, K, 2^{jℓ}).
func (b *BFDNL) startPhase(j int) {
	b.phaseJ = j
	s := 1 << j // base step: n_iter per level, level-1 budget
	robots := make([]int, b.kEff)
	for i := range robots {
		robots[i] = i
	}
	if b.ell == 1 {
		b.top1 = newBFDN1(robots, tree.Root, s)
		b.top = b.top1
		b.topDD = nil
	} else {
		dd := newDivideDepth(b.ell, robots, tree.Root, s, b.kstar)
		b.top = dd
		b.topDD = dd
		b.top1 = nil
	}
	b.ranOnce = false
}

// phaseIterationsDone reports that the current phase is past its last
// iteration (the interruption point of Definition 13).
func (b *BFDNL) phaseIterationsDone(v *sim.View) bool {
	if b.topDD != nil {
		return b.topDD.FinishedIterations()
	}
	// ℓ = 1: the phase is BFDN₁(k, k, 2^j); its interruption point is when
	// the shallow work within the budget is done (robots still descending
	// deeper subtrees are adopted by the next phase).
	_ = v
	return b.top1.b.ShallowDone()
}

// SelectMoves implements sim.Algorithm.
func (b *BFDNL) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	for i := range b.moves {
		b.moves[i] = sim.Move{Kind: sim.Stay}
	}
	if b.homing {
		for i := 0; i < b.kEff; i++ {
			if v.Pos(i) != tree.Root {
				b.moves[i] = sim.Move{Kind: sim.Up}
			}
		}
		return b.moves, nil
	}
	if b.ranOnce && b.phaseIterationsDone(v) {
		if !v.HasDanglingAnywhere() {
			// Exploration complete: walk everyone home.
			b.homing = true
			return b.SelectMoves(v, events)
		}
		b.startPhase(b.phaseJ + 1)
	}
	if err := b.top.Step(v, events, b.moves); err != nil {
		return nil, err
	}
	b.ranOnce = true
	// Phase-transition rounds can be all-stay; if exploration is in fact
	// complete, switch to homing immediately so the run does not terminate
	// with robots stranded mid-tree.
	if !v.HasDanglingAnywhere() {
		allStay := true
		for i := range b.moves {
			if b.moves[i].Kind != sim.Stay {
				allStay = false
				break
			}
		}
		if allStay {
			b.homing = true
			return b.SelectMoves(v, events)
		}
	}
	return b.moves, nil
}
