package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfdn/internal/bounds"
	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// TestBFDNPropertyRandomInstances drives BFDN over randomly drawn (tree, k)
// instances and checks the full contract in one predicate: complete
// exploration, all robots home, exactly n−1 first-time edge traversals,
// runtime within Theorem 1, and re-anchors within Lemma 2.
func TestBFDNPropertyRandomInstances(t *testing.T) {
	f := func(seed int64, nRaw uint16, dRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%800
		d := 1 + int(dRaw)%50
		k := 1 + int(kRaw)%50
		tr := tree.Random(n, d, rng)
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			return false
		}
		alg := NewAlgorithm(k)
		res, err := sim.Run(w, alg, 0)
		if err != nil {
			t.Logf("seed=%d n=%d d=%d k=%d: %v", seed, n, d, k, err)
			return false
		}
		if !res.FullyExplored || !res.AllAtRoot {
			return false
		}
		if res.EdgeExplorations != tr.N()-1 {
			return false
		}
		if float64(res.Rounds) > bounds.Theorem1(tr.N(), tr.Depth(), k, tr.MaxDegree()) {
			t.Logf("seed=%d n=%d D=%d k=%d: %d rounds over bound", seed, n, tr.Depth(), k, res.Rounds)
			return false
		}
		if float64(alg.Inner().Stats().MaxReanchorsAtDepth()) > bounds.Lemma2(k, tr.MaxDegree()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBFDNPropertyAllPoliciesComplete checks that every re-anchoring policy
// preserves the correctness contract on random instances.
func TestBFDNPropertyAllPoliciesComplete(t *testing.T) {
	policies := []Policy{LeastLoaded, RoundRobin, RandomOpen, MostLoaded}
	f := func(seed int64, nRaw uint16, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%500
		tr := tree.Random(n, 1+n/20, rng)
		p := policies[int(pRaw)%len(policies)]
		opts := []Option{WithPolicy(p)}
		if p == RandomOpen {
			opts = append(opts, WithRand(rand.New(rand.NewSource(seed+1))))
		}
		w, err := sim.NewWorld(tr, 5)
		if err != nil {
			return false
		}
		res, err := sim.Run(w, NewAlgorithm(5, opts...), 0)
		return err == nil && res.FullyExplored && res.AllAtRoot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
