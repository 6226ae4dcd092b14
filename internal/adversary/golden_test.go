package adversary

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// goldenTrees is the fixed tree set the fingerprints are taken over: every
// generator family, plus random trees wide and deep enough that blocked
// robots delay many re-anchoring decisions.
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

// runFingerprint drives the algorithm newAlg builds over a fresh world
// until every edge is visited, under the stopping rule of
// RunUntilExplored, and returns a SHA-256 over every round's moves followed
// by the run's rounds, moves and per-robot moves.
func runFingerprint(t *testing.T, tr *tree.Tree, k int, newAlg func(*sim.World) sim.Algorithm) []byte {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	a := newAlg(w)
	h := sha256.New()
	var buf []byte
	explored := UntilExplored(w, 1_000_000)
	if _, err := sim.RunContext(context.Background(), w, a, 1_000_000, nil, func(moves []sim.Move, events []sim.ExploreEvent, moved bool) (bool, error) {
		buf = buf[:0]
		for _, m := range moves {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Kind))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Child))
			if m.Kind == sim.Explore {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Ticket.From()))
			}
		}
		h.Write(buf)
		return explored(moves, events, moved)
	}); err != nil {
		t.Fatalf("%s k=%d: %v", tr, k, err)
	}
	m := w.Metrics()
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(m.Rounds))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Moves))
	for _, n := range m.MovesPerRobot {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	h.Write(buf)
	return h.Sum(nil)
}

// TestGoldenBreakdownFingerprints pins break-down BFDN's exact decisions
// under a Bernoulli schedule and under each state-adaptive blocker stalling
// half the robots: per adversary, a SHA-256 over every golden tree at k ∈
// {1, 2, 3, 8, 16, 64}.
func TestGoldenBreakdownFingerprints(t *testing.T) {
	want := map[string]string{
		"bernoulli":      "233a049c5d217656afc6b78e9601ff8e68b908d72c1ab73b1dab367952515504",
		"blockdeepest":   "1d4be0d79f59a28b84d0ab7d638b032cc23d258f54e55979b918b6acaed73273",
		"blockexplorers": "a00ff756ff53c6d6b4ca1edb34ed14d00abe22d5c625e48ed7c0966828946dc1",
		"blockreturners": "004d09c6bdf41b39428b7dd37343ae650d640289f4b711a48b10fd743089f2be",
	}
	trees := goldenTrees()
	for _, name := range []string{"bernoulli", "blockdeepest", "blockexplorers", "blockreturners"} {
		all := sha256.New()
		for _, tr := range trees {
			for _, k := range []int{1, 2, 3, 8, 16, 64} {
				sum := runFingerprint(t, tr, k, func(w *sim.World) sim.Algorithm {
					switch name {
					case "blockdeepest":
						return New(k, newAdaptive(w, blockDeepest, k/2))
					case "blockexplorers":
						return New(k, newAdaptive(w, blockExplorers, k/2))
					case "blockreturners":
						return New(k, newAdaptive(w, blockReturners, k/2))
					}
					return New(k, &Bernoulli{P: 0.6, K: k, Seed: 42})
				})
				t.Logf("%s %s k=%d: %x", name, tr, k, sum)
				all.Write(sum)
			}
		}
		if got := hex.EncodeToString(all.Sum(nil)); got != want[name] {
			t.Errorf("%s: fingerprint = %s, want %s (run with -v for per-case digests)", name, got, want[name])
		}
	}
}
