package urns

import "math/rand"

// The ablation strategies the game tests compare the paper's least-loaded
// player and strategic adversary against.

// RoundRobinPlayer cycles deterministically over fresh urns, ignoring loads.
// An ablation strategy: it spreads balls but does not balance them.
type RoundRobinPlayer struct {
	next int
}

var _ Player = (*RoundRobinPlayer)(nil)

// Choose implements Player.
func (p *RoundRobinPlayer) Choose(b *Board, a int) int {
	k := b.K()
	for scanned := 0; scanned < k; scanned++ {
		i := p.next % k
		p.next++
		if b.Fresh(i) && i != a {
			return i
		}
	}
	return a
}

// RandomPlayer moves the ball to a uniformly random fresh urn.
type RandomPlayer struct {
	Rng *rand.Rand
}

var _ Player = (*RandomPlayer)(nil)

// Choose implements Player.
func (p *RandomPlayer) Choose(b *Board, a int) int {
	var candidates []int
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) && i != a {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return a
	}
	return candidates[p.Rng.Intn(len(candidates))]
}

// MostLoadedPlayer is the pessimal counterpart of LeastLoadedPlayer: it piles
// balls onto the fullest fresh urn, starving the others.
type MostLoadedPlayer struct{}

var _ Player = MostLoadedPlayer{}

// Choose implements Player.
func (MostLoadedPlayer) Choose(b *Board, a int) int {
	best, bestLoad := -1, -1
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) && i != a && b.Load(i) > bestLoad {
			best, bestLoad = i, b.Load(i)
		}
	}
	if best < 0 {
		return a
	}
	return best
}

// DrainMinAdversary plays option (a) when available, like the strategic
// adversary, but burns the fresh urn with the FEWEST balls when forced to
// option (b) — the provably dominated branch, used to validate Lemma 4
// empirically (it should never beat StrategicAdversary).
type DrainMinAdversary struct{}

var _ Adversary = DrainMinAdversary{}

// Choose implements Adversary.
func (DrainMinAdversary) Choose(b *Board) int {
	for i := 0; i < b.K(); i++ {
		if !b.Fresh(i) && b.Load(i) > 0 {
			return i
		}
	}
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) && b.Load(i) > 0 && b.Load(i) < bestLoad {
			best, bestLoad = i, b.Load(i)
		}
	}
	if best >= 0 {
		return best
	}
	// All fresh urns empty: the game would already have stopped unless some
	// non-fresh urn holds a ball, handled above; fall back defensively.
	for i := 0; i < b.K(); i++ {
		if b.Load(i) > 0 {
			return i
		}
	}
	return -1
}
