package urns

import "math/rand"

// StrategicAdversary plays the optimal policy derived in the proof of
// Theorem 3 (Lemma 4): prefer option (a) — pick a ball from an urn it has
// already chosen — whenever some ball lies outside U_t, and otherwise play
// option (b) on the fresh urn with the most balls (the ⌈N/u⌉ branch, which
// dominates the ⌊N/u⌋ branch by monotonicity of R).
type StrategicAdversary struct{}

var _ Adversary = StrategicAdversary{}

// Choose implements Adversary.
func (StrategicAdversary) Choose(b *Board) int {
	// Option (a): any non-empty urn already chosen before.
	for i := 0; i < b.K(); i++ {
		if !b.Fresh(i) && b.Load(i) > 0 {
			return i
		}
	}
	// Option (b): fresh urn with maximum load.
	best, bestLoad := -1, -1
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) && b.Load(i) > bestLoad {
			best, bestLoad = i, b.Load(i)
		}
	}
	return best
}

// RandomAdversary picks a uniformly random non-empty urn.
type RandomAdversary struct {
	Rng *rand.Rand
}

var _ Adversary = (*RandomAdversary)(nil)

// Choose implements Adversary.
func (a *RandomAdversary) Choose(b *Board) int {
	var candidates []int
	for i := 0; i < b.K(); i++ {
		if b.Load(i) > 0 {
			candidates = append(candidates, i)
		}
	}
	return candidates[a.Rng.Intn(len(candidates))]
}

// FreshFirstAdversary always burns a fresh urn when one is non-empty (pure
// option (b)): a weak adversary that ends the game in at most ~2k steps.
type FreshFirstAdversary struct{}

var _ Adversary = FreshFirstAdversary{}

// Choose implements Adversary.
func (FreshFirstAdversary) Choose(b *Board) int {
	for i := 0; i < b.K(); i++ {
		if b.Fresh(i) && b.Load(i) > 0 {
			return i
		}
	}
	for i := 0; i < b.K(); i++ {
		if b.Load(i) > 0 {
			return i
		}
	}
	return -1
}
