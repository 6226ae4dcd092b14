package recursive

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// TestBFDNLPropertyRandomInstances checks the full BFDN_ℓ contract on
// randomly drawn (tree, k, ℓ) instances: completion, homecoming, single
// traversal of dangling edges, and the Theorem 10 budget.
func TestBFDNLPropertyRandomInstances(t *testing.T) {
	f := func(seed int64, nRaw uint16, dRaw, kRaw, ellRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%500
		d := 1 + int(dRaw)%60
		k := 1 + int(kRaw)%40
		ell := 1 + int(ellRaw)%3
		tr := tree.Random(n, d, rng)
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			return false
		}
		alg, err := NewBFDNL(k, ell)
		if err != nil {
			return false
		}
		res, err := sim.Run(w, alg, 0)
		if err != nil {
			t.Logf("seed=%d n=%d d=%d k=%d ℓ=%d: %v", seed, n, d, k, ell, err)
			return false
		}
		if !res.FullyExplored || !res.AllAtRoot || res.EdgeExplorations != tr.N()-1 {
			return false
		}
		if float64(res.Rounds) > bounds.Theorem10(tr.N(), tr.Depth(), k, tr.MaxDegree(), ell) {
			t.Logf("seed=%d n=%d D=%d k=%d ℓ=%d: %d rounds over Theorem 10", seed, n, tr.Depth(), k, ell, res.Rounds)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
