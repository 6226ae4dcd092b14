package potential

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// goldenTrees is the fixed tree set the golden fingerprints are taken over:
// every generator family, plus random trees wide and deep enough that slots
// cross many subtree boundaries per round.
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

var goldenKs = []int{1, 2, 3, 8, 16, 64}

// hashMoves is a round hook that hashes every move of every round into h
// and checks the round with c, so two implementations are compared
// decision by decision rather than by round counts alone.
func hashMoves(h hash.Hash, c *sim.Checker) sim.RoundHook {
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
		return c.Round(moves, nil, moved)
	}
}

// TestGoldenMoveFingerprint pins sync Potential's exact decisions: a
// SHA-256 over every round's moves, on every golden tree at every golden k.
// Any change to slot resolution, reservation order or routing moves it.
func TestGoldenMoveFingerprint(t *testing.T) {
	const want = "9d50666f0d8c4ce4227f8f3cc0000cf272353a10b745d831236183f0e6a1e3e6"
	all := sha256.New()
	for _, tr := range goldenTrees() {
		for _, k := range goldenKs {
			h := sha256.New()
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunContext(context.Background(), w, New(k), 0, nil, hashMoves(h, sim.NewChecker(w)))
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

// TestGoldenCheckpoint pins the bytes of one mid-run checkpoint, taken on a
// round whose pending events hold two explorations at one parent — the case
// where the order of a parent's new children in the slot sequence matters.
func TestGoldenCheckpoint(t *testing.T) {
	const want = "7e49e719320fe820053c6a89cecbc8d64d65ebd3e17f1a22d345baf0e6e417fa"
	tr := tree.Random(400, 12, rand.New(rand.NewSource(7)))
	const k, minRound = 8, 6
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	p := New(k)
	var ckpt []byte
	if _, err := sim.RunContext(context.Background(), w, p, 0, nil, func(_ []sim.Move, events []sim.ExploreEvent, moved bool) (done bool, err error) {
		if w.Round() > minRound && sharedParent(events) {
			ckpt, err = sim.EncodeCheckpoint(w, p, events)
			return true, err
		}
		return !moved, nil
	}); err != nil || ckpt == nil {
		t.Fatalf("no round after round %d explored two children of one parent (%v)", minRound, err)
	}
	sum := sha256.Sum256(ckpt)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("checkpoint at round %d (%d bytes) hashes to %s, want %s", w.Round(), len(ckpt), got, want)
	}
}

// sharedParent reports whether two events explored children of one parent.
func sharedParent(events []sim.ExploreEvent) bool {
	for i := range events {
		for _, e := range events[i+1:] {
			if e.Parent == events[i].Parent {
				return true
			}
		}
	}
	return false
}

// TestRestoredRunCheckpointsMatch restores a run from its checkpoint at
// several rounds and checks every later checkpoint of the restored run —
// the re-emitted one before its first round, and those derived from the
// slot index rebuilt from the view — against the uninterrupted run's.
func TestRestoredRunCheckpointsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tr := range []*tree.Tree{tree.KAry(3, 5), tree.Random(500, 14, rng), tree.Comb(12, 5)} {
		for _, k := range []int{1, 3, 16} {
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			p := New(k)
			var ckpts [][]byte
			if _, err := sim.RunContext(context.Background(), w, p, 0, nil, func(_ []sim.Move, events []sim.ExploreEvent, moved bool) (bool, error) {
				ckpt, err := sim.EncodeCheckpoint(w, p, events)
				ckpts = append(ckpts, ckpt)
				return !moved, err
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < len(ckpts); r += 1 + len(ckpts)/5 {
				w2, err := sim.NewWorld(tr, k)
				if err != nil {
					t.Fatal(err)
				}
				p2 := New(k)
				events, err := sim.RestoreCheckpoint(ckpts[r], w2, p2)
				if err != nil {
					t.Fatal(err)
				}
				i := r
				match := func(events []sim.ExploreEvent) (bool, error) {
					got, err := sim.EncodeCheckpoint(w2, p2, events)
					if err == nil && !bytes.Equal(got, ckpts[i]) {
						err = fmt.Errorf("%s k=%d: restored at checkpoint %d, checkpoint %d differs", tr, k, r, i)
					}
					i++
					return i == len(ckpts), err
				}
				if done, err := match(events); err != nil {
					t.Fatal(err)
				} else if !done {
					if _, err := sim.RunContext(context.Background(), w2, p2, 0, events, func(_ []sim.Move, events []sim.ExploreEvent, _ bool) (bool, error) {
						return match(events)
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
