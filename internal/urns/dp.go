package urns

// This file computes the exact game value R(N, u) of §3 by dynamic
// programming, following equations (1) and (2) of the paper. R(N, u) is the
// largest number of steps the game may still last — under the least-loaded
// player strategy — after the player's move led to a configuration with N
// balls spread (balanced) over u fresh urns. It is used by tests to validate
// Lemma 4 (monotonicity of R in N; option (a) dominates option (b)) and to
// cross-check the simulated strategic adversary.

// GameValue holds the R(N,u) table for one (k, Δ) pair.
type GameValue struct {
	K     int
	Delta int
	r     [][]int // r[u][N], u,N in 0..K
}

// NewGameValue computes the full table in O(k²).
func NewGameValue(k, delta int) *GameValue {
	gv := &GameValue{K: k, Delta: delta}
	gv.r = make([][]int, k+1)
	for u := range gv.r {
		gv.r[u] = make([]int, k+1)
	}
	for u := 1; u <= k; u++ {
		// Evaluate N from high to low so that R(N+1, u) is available.
		for n := k; n >= 0; n-- {
			if delta*u-n <= 0 {
				gv.r[u][n] = 0
				continue
			}
			ceil := (n + u - 1) / u
			floor := n / u
			// Option (b): burn a fresh urn holding ⌈N/u⌉ or ⌊N/u⌋ balls.
			best := gv.at(n-ceil+1, u-1)
			if v := gv.at(n-floor+1, u-1); v > best {
				best = v
			}
			// Option (a): only while some ball lies outside U (N < k).
			if n < k {
				if v := gv.r[u][n+1]; v > best {
					best = v
				}
			}
			gv.r[u][n] = 1 + best
		}
	}
	return gv
}

func (gv *GameValue) at(n, u int) int {
	if u <= 0 {
		return 0
	}
	if n < 0 {
		n = 0
	}
	if n > gv.K {
		n = gv.K
	}
	return gv.r[u][n]
}

// Start returns the game value from the standard initial board, R(k, k).
func (gv *GameValue) Start() int { return gv.r[gv.K][gv.K] }
