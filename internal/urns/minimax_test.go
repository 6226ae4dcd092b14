package urns

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"bfdn/internal/bounds"
)

// This file computes the exact minimax value of the balls-in-urns game over
// ALL player strategies (not just least-loaded), for small k. It validates
// the paper's claim that reassigning to the least-crowded urn is the optimal
// rule: the minimax value must coincide with the R(N, u) game value computed
// under the least-loaded player.
//
// The state space collapses by symmetry: only the multiset of fresh-urn
// loads and the number of balls outside the fresh set matter. The adversary
// maximizes remaining steps, the player minimizes.

// Minimax computes the optimal game value for k urns and threshold delta by
// exhaustive search with memoization. Exponential in k — intended for k ≤ 8.
type Minimax struct {
	k     int
	delta int
	memo  map[string]int
}

// NewMinimax prepares a solver.
func NewMinimax(k, delta int) *Minimax {
	return &Minimax{k: k, delta: delta, memo: make(map[string]int)}
}

// Value returns the minimax game length from the standard start (one ball
// per urn, all urns fresh).
func (m *Minimax) Value() int {
	loads := make([]int, m.k)
	for i := range loads {
		loads[i] = 1
	}
	return m.solve(loads, 0)
}

// stopped reports the stop condition: every fresh urn holds ≥ Δ balls.
func (m *Minimax) stopped(fresh []int) bool {
	for _, l := range fresh {
		if l < m.delta {
			return false
		}
	}
	return true
}

// solve returns the game length with the adversary to move, where fresh is
// the multiset of fresh-urn loads and outside the ball count outside U_t.
func (m *Minimax) solve(fresh []int, outside int) int {
	if m.stopped(fresh) {
		return 0
	}
	key := stateKey(fresh, outside)
	if v, ok := m.memo[key]; ok {
		return v
	}
	// The recursion is well-founded on the lexicographic order (u, outside):
	// option (b) strictly decreases u, option (a) keeps u and strictly
	// decreases outside (the player always places into a fresh urn — see
	// playerBest). No cycles, so plain memoization is sound.

	best := 0
	// Option (a): the adversary picks a ball outside the fresh set.
	if outside > 0 {
		if v := 1 + m.playerBest(fresh, outside-1); v > best {
			best = v
		}
	}
	// Option (b): the adversary burns a fresh urn (one per distinct load
	// class with ≥... any load, including empty urns — but an empty urn has
	// no ball to pick, so require load ≥ 1).
	tried := make(map[int]bool, len(fresh))
	for i, l := range fresh {
		if l < 1 || tried[l] {
			continue
		}
		tried[l] = true
		rest := append(append([]int(nil), fresh[:i]...), fresh[i+1:]...)
		// The burned urn's remaining l−1 balls join the outside pool; the
		// picked ball is in the player's hand.
		if v := 1 + m.playerBest(rest, outside+l-1); v > best {
			best = v
		}
	}
	m.memo[key] = best
	return best
}

// playerBest lets the player place the picked ball to minimize the value.
// Placing the ball outside the fresh set is dominated and excluded: it
// leaves the stop condition (all fresh loads ≥ Δ) no closer while handing
// the adversary an extra option-(a) ball, so an optimal player always
// places into a fresh urn (one candidate per distinct load class suffices
// by symmetry). When no fresh urn remains the game is already stopped
// (u = 0 makes the stop condition vacuous), handled in solve.
func (m *Minimax) playerBest(fresh []int, outside int) int {
	if len(fresh) == 0 {
		return m.solve(fresh, outside+1) // stopped immediately: returns 0
	}
	best := -1
	tried := make(map[int]bool, len(fresh))
	for i, l := range fresh {
		if tried[l] {
			continue
		}
		tried[l] = true
		next := append([]int(nil), fresh...)
		next[i]++
		if v := m.solve(next, outside); best < 0 || v < best {
			best = v
		}
	}
	return best
}

func stateKey(fresh []int, outside int) string {
	s := append([]int(nil), fresh...)
	sort.Ints(s)
	var sb strings.Builder
	for _, l := range s {
		sb.WriteString(strconv.Itoa(l))
		sb.WriteByte(',')
	}
	sb.WriteByte('|')
	sb.WriteString(strconv.Itoa(outside))
	return sb.String()
}

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
