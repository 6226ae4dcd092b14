package urns

import (
	"testing"

	"bfdn/internal/bounds"
)

// TestMinimaxMatchesLeastLoadedGameValue validates the optimality claim
// behind Theorem 3: the minimax value over ALL player strategies equals the
// game value under the least-loaded player, i.e. balancing is an optimal
// reassignment rule (for every small k and threshold we can afford).
func TestMinimaxMatchesLeastLoadedGameValue(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7} {
		for _, delta := range []int{1, 2, 3, k, k + 3} {
			if delta < 1 {
				continue
			}
			mm := NewMinimax(k, delta).Value()
			dp := NewGameValue(k, delta).Start()
			if mm != dp {
				t.Errorf("k=%d Δ=%d: minimax %d != least-loaded game value %d",
					k, delta, mm, dp)
			}
		}
	}
}

// TestMinimaxWithinTheorem3 checks the bound directly on the exact values.
func TestMinimaxWithinTheorem3(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		v := NewMinimax(k, k).Value()
		if float64(v) > bounds.Theorem3(k, k) {
			t.Errorf("k=%d: minimax value %d exceeds Theorem 3 bound %.1f",
				k, v, bounds.Theorem3(k, k))
		}
	}
}

// TestMinimaxMonotoneInDelta: a larger threshold can only lengthen the game.
func TestMinimaxMonotoneInDelta(t *testing.T) {
	prev := -1
	for delta := 1; delta <= 6; delta++ {
		v := NewMinimax(5, delta).Value()
		if v < prev {
			t.Errorf("Δ=%d: value %d decreased from %d", delta, v, prev)
		}
		prev = v
	}
}

func TestMinimaxDegenerate(t *testing.T) {
	if v := NewMinimax(1, 1).Value(); v != 0 {
		t.Errorf("k=1 Δ=1: value %d, want 0 (already stopped)", v)
	}
	if v := NewMinimax(1, 5).Value(); v != 1 {
		t.Errorf("k=1 Δ=5: value %d, want 1", v)
	}
	if v := NewMinimax(2, 1).Value(); v != 0 {
		t.Errorf("k=2 Δ=1: value %d, want 0", v)
	}
}
