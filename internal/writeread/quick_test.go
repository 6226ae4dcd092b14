package writeread

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
	"bfdn/internal/tree"
)

// TestWriteReadPropertyRandomInstances checks the distributed-model
// contract on random (tree, k) instances: completion, homecoming, the
// Proposition 6 runtime bound, and the per-robot memory budget.
func TestWriteReadPropertyRandomInstances(t *testing.T) {
	f := func(seed int64, nRaw uint16, dRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%500
		d := 1 + int(dRaw)%40
		k := 1 + int(kRaw)%30
		tr := tree.Random(n, d, rng)
		e, err := NewEngine(tr, k)
		if err != nil {
			return false
		}
		res, err := e.Run(0)
		if err != nil {
			t.Logf("seed=%d n=%d d=%d k=%d: %v", seed, n, d, k, err)
			return false
		}
		if !res.FullyExplored || !res.AllAtRoot {
			return false
		}
		if float64(res.Rounds) > bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree()) {
			t.Logf("seed=%d n=%d D=%d k=%d: %d rounds over Prop 6", seed, n, tr.Depth(), k, res.Rounds)
			return false
		}
		return res.MaxRobotMemoryBits <= e.MemoryModelBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
