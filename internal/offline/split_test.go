package offline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
	"bfdn/internal/tree"
)

// TestSplitDFSPropertyCoversEveryEdge checks the offline schedule's
// correctness property on random instances: the k segments of the Euler
// tour jointly cover all 2(n−1) tour steps, so every tree edge is traversed
// twice across the fleet, and the makespan is sandwiched between the offline
// lower bound minus travel slack and 2(n/k + D) + k.
func TestSplitDFSPropertyCoversEveryEdge(t *testing.T) {
	f := func(seed int64, nRaw uint16, dRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%600
		d := 1 + int(dRaw)%40
		k := 1 + int(kRaw)%40
		tr := tree.Random(n, d, rng)
		res, err := SplitDFS(tr, k)
		if err != nil {
			return false
		}
		// Segment coverage: total per-robot traversal length (excluding the
		// reach/return travel) must equal the full tour length.
		tour := EulerTour(tr)
		m := len(tour) - 1
		segLen := (m + k - 1) / k
		covered := 0
		for i := 0; i < k; i++ {
			lo := i * segLen
			if lo >= m {
				break
			}
			hi := lo + segLen
			if hi > m {
				hi = m
			}
			covered += hi - lo
		}
		if covered != m {
			t.Logf("seed=%d n=%d k=%d: covered %d of %d tour steps", seed, n, k, covered, m)
			return false
		}
		ub := 2*(float64(tr.N())/float64(k)+float64(tr.Depth())) + float64(k)
		if float64(res.Rounds) > ub {
			return false
		}
		return float64(res.Rounds) >= bounds.OfflineLB(tr.N(), tr.Depth(), k)-2*float64(tr.Depth())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSplitDFSPerRobotCosts pins the per-robot accounting on a concrete
// instance: reach + segment + return.
func TestSplitDFSPerRobotCosts(t *testing.T) {
	tr := tree.Path(9) // tour length 16
	res, err := SplitDFS(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Segments of length 4: robot i covers tour[4i..4i+4].
	// Path tour: 0..8 then back. Costs: depth(start) + 4 + depth(end).
	want := []int{0 + 4 + 4, 4 + 4 + 8, 8 + 4 + 4, 4 + 4 + 0}
	for i, w := range want {
		if res.PerRobot[i] != w {
			t.Errorf("robot %d cost = %d, want %d", i, res.PerRobot[i], w)
		}
	}
	if res.Rounds != 16 {
		t.Errorf("makespan = %d, want 16", res.Rounds)
	}
}
