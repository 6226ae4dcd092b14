package levelwise

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// goldenTrees is the fixed tree set the move fingerprints are taken over
// (the same set as internal/core's): every generator family, plus random
// trees wide and deep enough that phases span many depths.
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
// h, so a change to any single phase assignment shows.
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

// TestGoldenMoveFingerprint pins Levelwise's exact decisions: a SHA-256
// over every round's moves and the run's phase count, on every golden tree
// at every golden k.
func TestGoldenMoveFingerprint(t *testing.T) {
	const want = "97ef85c008b8c035897cb445baee82ac555498441b70aafc41123427b9d0a055"
	all := sha256.New()
	for _, tr := range goldenTrees() {
		for _, k := range goldenKs {
			l := New(k)
			h := sha256.New()
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunContext(context.Background(), w, l, 0, nil, hashMoves(h))
			if err != nil {
				t.Fatalf("%s k=%d: %v", tr, k, err)
			}
			if !res.FullyExplored || !res.AllAtRoot {
				t.Fatalf("%s k=%d: bad terminal state", tr, k)
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(l.Phases)))
			sum := h.Sum(nil)
			t.Logf("%s k=%d: rounds=%d phases=%d %x", tr, k, res.Rounds, l.Phases, sum)
			all.Write(sum)
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != want {
		t.Errorf("move fingerprint = %s, want %s (run with -v for per-case digests)", got, want)
	}
}

// checkpointTree, checkpointK and checkpointRounds fix the mid-run
// checkpoint in testdata/checkpoint.bin: after 75 rounds the open list holds
// closed entries and an unsorted tail, robots are on their way home, and
// two explore events are pending.
const checkpointK, checkpointRounds = 8, 75

func checkpointTree() *tree.Tree { return tree.Random(400, 12, rand.New(rand.NewSource(7))) }

// midRunCheckpoint runs Levelwise and returns the first checkpoint the
// current code writes, after checkpointRounds rounds.
func midRunCheckpoint(t *testing.T) []byte {
	t.Helper()
	w, err := sim.NewWorld(checkpointTree(), checkpointK)
	if err != nil {
		t.Fatal(err)
	}
	l := New(checkpointK)
	var ckpt []byte
	save := func(state []byte) error {
		if ckpt == nil {
			ckpt = state
		}
		return nil
	}
	if _, err := sim.RunContext(context.Background(), w, l, 0, nil, sim.SaveEvery(w, l, checkpointRounds, save)); err != nil {
		t.Fatal(err)
	}
	return ckpt
}

// TestGoldenCheckpoint pins a mid-run checkpoint written by an earlier
// encoding of the open list (testdata/checkpoint.bin) and checks that it,
// and the checkpoint the current code writes at the same round, restore
// and finish with the uninterrupted run's Result and phase count.
func TestGoldenCheckpoint(t *testing.T) {
	const want = "28757495f0fa4b7755f7024421fe49ba21c698fb9f4ef011dea54966e19e6033"
	golden, err := os.ReadFile("testdata/checkpoint.bin")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(golden); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("testdata/checkpoint.bin hashes to %x, want %s", sum, want)
	}
	tr := checkpointTree()
	w, err := sim.NewWorld(tr, checkpointK)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(checkpointK)
	wantRes, err := sim.Run(w, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, ckpt := range map[string][]byte{"golden": golden, "current": midRunCheckpoint(t)} {
		w, err := sim.NewWorld(tr, checkpointK)
		if err != nil {
			t.Fatal(err)
		}
		l := New(checkpointK)
		events, err := sim.RestoreCheckpoint(ckpt, w, l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.RunContext(context.Background(), w, l, 0, events, nil)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", name, err)
		}
		if !reflect.DeepEqual(res, wantRes) || l.Phases != ref.Phases {
			t.Errorf("%s: resumed run ends with %+v after %d phases, want %+v after %d",
				name, res, l.Phases, wantRes, ref.Phases)
		}
	}
}
