package recursive

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// goldenTrees is the fixed tree set the move fingerprints are taken over:
// every generator family, plus random trees wide and deep enough that the
// construction runs several phases and iterations.
func goldenTrees() []*tree.Tree {
	rng := rand.New(rand.NewSource(2311))
	return []*tree.Tree{
		tree.Path(40), tree.Star(30), tree.KAry(2, 6), tree.KAry(4, 3),
		tree.Spider(6, 8), tree.Comb(10, 4), tree.Caterpillar(12, 3),
		tree.Broom(12, 8), tree.UnevenPaths(8, 24),
		tree.Random(400, 12, rng), tree.RandomBinary(250, rng),
		tree.Random(1500, 30, rng),
	}
}

// hashMoves is a round hook that hashes every move of every round into
// h.
func hashMoves(h hash.Hash) sim.RoundHook {
	var buf []byte
	return func(moves []sim.Move, _ []sim.ExploreEvent, moved bool) (bool, error) {
		for _, m := range moves {
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(m.Kind))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Child))
			if m.Kind == sim.Explore {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Ticket.From()))
			}
			h.Write(buf)
		}
		return !moved, nil
	}
}

// TestGoldenMoveFingerprints pins BFDN_ℓ's exact decisions: per ℓ, a
// SHA-256 over every round's moves on every golden tree at
// k ∈ {1, 2, 3, 8, 16, 64}.
func TestGoldenMoveFingerprints(t *testing.T) {
	want := map[int]string{
		1: "5ffc6ac995131da2dab01842300f73248248d800c5401735f2e6106f8666736d",
		2: "322b395a648fd33fbfe730edd71c653f13c7dda0b3928221f01a690afa3e1f6d",
		3: "9e76af5747e5c457a8e9eb1afb8f25b03cda4ab05100bfff8e33d138cf0d13e5",
	}
	trees := goldenTrees()
	for ell := 1; ell <= 3; ell++ {
		all := sha256.New()
		for _, tr := range trees {
			for _, k := range []int{1, 2, 3, 8, 16, 64} {
				alg, err := NewBFDNL(k, ell)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				w, err := sim.NewWorld(tr, k)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunContext(context.Background(), w, alg, 0, nil, hashMoves(h))
				if err != nil {
					t.Fatalf("ℓ=%d %s k=%d: %v", ell, tr, k, err)
				}
				if !res.FullyExplored || !res.AllAtRoot {
					t.Fatalf("ℓ=%d %s k=%d: bad terminal state", ell, tr, k)
				}
				sum := h.Sum(nil)
				t.Logf("ℓ=%d %s k=%d: rounds=%d %x", ell, tr, k, res.Rounds, sum)
				all.Write(sum)
			}
		}
		if got := hex.EncodeToString(all.Sum(nil)); got != want[ell] {
			t.Errorf("ℓ=%d: fingerprint = %s, want %s (run with -v for per-case digests)", ell, got, want[ell])
		}
	}
}
