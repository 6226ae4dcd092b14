package treemining

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

// goldenTrees is the fixed tree set the move fingerprints are taken over
// (the same set as internal/core's): every generator family, plus random
// trees wide and deep enough that many teams share nodes and split.
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

var goldenKs = []int{1, 2, 3, 8, 16, 64, 128}

// hashMoves is a round hook that hashes every move of every round into
// h, so a change to any single grouping or split decision shows.
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

// TestGoldenMoveFingerprint pins Tree-Mining's exact decisions: a SHA-256
// over every round's moves, on every golden tree at every golden k.
func TestGoldenMoveFingerprint(t *testing.T) {
	const want = "7ce6f9f4bd7d08349ea6089c5da85934251f96d2f228343b5710f834d2ba4446"
	all := sha256.New()
	for _, tr := range goldenTrees() {
		for _, k := range goldenKs {
			h := sha256.New()
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunContext(context.Background(), w, New(k), 0, nil, hashMoves(h))
			if err != nil {
				t.Fatalf("%s k=%d: %v", tr, k, err)
			}
			if !res.FullyExplored || !res.AllAtRoot {
				t.Fatalf("%s k=%d: bad terminal state", tr, k)
			}
			sum := h.Sum(nil)
			t.Logf("%s k=%d: rounds=%d %x", tr, k, res.Rounds, sum)
			all.Write(sum)
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != want {
		t.Errorf("move fingerprint = %s, want %s (run with -v for per-case digests)", got, want)
	}
}

// TestGoldenCheckpoint pins the bytes of one mid-run checkpoint: the
// per-subtree open-edge reserve and the seeding flag, after the world's
// state.
func TestGoldenCheckpoint(t *testing.T) {
	const want = "6ddb9787182f8cdb36c566764dce01d88f746bd5274e82c609af68f2929e81ea"
	tr := tree.Random(400, 12, rand.New(rand.NewSource(7)))
	const k, rounds = 8, 40
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	tm := New(k)
	var ckpt []byte
	save := func(state []byte) error {
		if ckpt == nil {
			ckpt = state
		}
		return nil
	}
	if _, err := sim.RunContext(context.Background(), w, tm, 0, nil, sim.SaveEvery(w, tm, rounds, save)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(ckpt)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("checkpoint at round %d (%d bytes) hashes to %s, want %s", rounds, len(ckpt), got, want)
	}
}
