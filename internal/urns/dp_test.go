package urns

import (
	"testing"

	"bfdn/internal/bounds"
)

func TestGameValueLemma4Monotonicity(t *testing.T) {
	// Lemma 4 (i): N ↦ R(N, u) is non-increasing.
	for _, delta := range []int{2, 5, 20} {
		gv := NewGameValue(20, delta)
		for u := 0; u <= 20; u++ {
			for n := 0; n < 20; n++ {
				if gv.at(n, u) < gv.at(n+1, u) {
					t.Errorf("Δ=%d: R(%d,%d)=%d < R(%d,%d)=%d violates monotonicity",
						delta, n, u, gv.at(n, u), n+1, u, gv.at(n+1, u))
				}
			}
		}
	}
}

func TestGameValueLemma4OptionADominates(t *testing.T) {
	// Lemma 4 (ii): for N < k the maximum in (1) is achieved by R(N+1, u);
	// equivalently R(N,u) = 1 + R(N+1,u) whenever Δu−N > 0 and N < k.
	k := 18
	for _, delta := range []int{2, 6, k} {
		gv := NewGameValue(k, delta)
		for u := 1; u <= k; u++ {
			for n := 0; n < k; n++ {
				if delta*u-n <= 0 {
					continue
				}
				if gv.at(n, u) != 1+gv.at(n+1, u) {
					t.Errorf("Δ=%d: R(%d,%d)=%d != 1+R(%d,%d)=%d: option (a) not optimal",
						delta, n, u, gv.at(n, u), n+1, u, 1+gv.at(n+1, u))
				}
			}
		}
	}
}

func TestGameValueWithinTheorem3Bound(t *testing.T) {
	for _, k := range []int{1, 2, 5, 16, 40, 100} {
		for _, delta := range []int{1, 2, 7, k, 10 * k} {
			if delta < 1 {
				delta = 1
			}
			gv := NewGameValue(k, delta)
			if got, bound := float64(gv.Start()), bounds.Theorem3(k, delta); got > bound {
				t.Errorf("k=%d Δ=%d: game value %v exceeds bound %.1f", k, delta, got, bound)
			}
		}
	}
}

func TestSimulatedStrategicMatchesGameValue(t *testing.T) {
	// The simulated strategic adversary realizes exactly the DP game value
	// from the standard start against the least-loaded player.
	for _, k := range []int{1, 2, 3, 4, 8, 12, 20, 31} {
		for _, delta := range []int{1, 2, 3, k, 2 * k} {
			if delta < 1 {
				delta = 1
			}
			gv := NewGameValue(k, delta)
			b, err := NewBoard(k, delta)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Play(b, LeastLoadedPlayer{}, StrategicAdversary{}, 0, false)
			if err != nil {
				t.Fatalf("k=%d Δ=%d: %v", k, delta, err)
			}
			if res.Steps != gv.Start() {
				t.Errorf("k=%d Δ=%d: simulated %d steps, DP value %d", k, delta, res.Steps, gv.Start())
			}
		}
	}
}

func TestGameValueStoppedStates(t *testing.T) {
	gv := NewGameValue(10, 3)
	// Δu ≤ N means stopped: R = 0.
	if gv.at(9, 3) != 0 {
		t.Errorf("R(9,3) = %d, want 0 (3·3 ≤ 9)", gv.at(9, 3))
	}
	if gv.at(10, 0) != 0 {
		t.Errorf("R(10,0) = %d, want 0", gv.at(10, 0))
	}
	// Just below the threshold the game can still run.
	if gv.at(8, 3) == 0 {
		t.Error("R(8,3) = 0, want > 0 (3·3 > 8)")
	}
}

func TestGameValueGrowth(t *testing.T) {
	// R(k,k) with Δ=k grows super-linearly in k (≈ k·H_k).
	v8 := NewGameValue(8, 8).Start()
	v64 := NewGameValue(64, 64).Start()
	if float64(v64)/64 <= float64(v8)/8 {
		t.Errorf("game value per urn did not grow: k=8→%d, k=64→%d", v8, v64)
	}
}
