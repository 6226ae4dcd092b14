package potential

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// moveRecorder wraps an algorithm and hashes every move of every round it
// returns, so two implementations are compared decision by decision rather
// than by round counts alone.
type moveRecorder struct {
	a   sim.Algorithm
	h   hash.Hash
	buf []byte
}

func (r *moveRecorder) SelectMoves(v *sim.View, events []sim.ExploreEvent) ([]sim.Move, error) {
	moves, err := r.a.SelectMoves(v, events)
	if err != nil {
		return nil, err
	}
	r.buf = r.buf[:0]
	for _, m := range moves {
		r.buf = binary.LittleEndian.AppendUint32(r.buf, uint32(m.Kind))
		r.buf = binary.LittleEndian.AppendUint32(r.buf, uint32(m.Child))
		if m.Kind == sim.Explore {
			r.buf = binary.LittleEndian.AppendUint32(r.buf, uint32(m.Ticket.From()))
		}
	}
	r.h.Write(r.buf)
	return moves, nil
}

// TestGoldenMoveFingerprint pins sync Potential's exact decisions: a
// SHA-256 over every round's moves, on every golden tree at every golden k.
// Any change to slot resolution, reservation order or routing moves it.
func TestGoldenMoveFingerprint(t *testing.T) {
	const want = "9d50666f0d8c4ce4227f8f3cc0000cf272353a10b745d831236183f0e6a1e3e6"
	all := sha256.New()
	for _, tr := range goldenTrees() {
		for _, k := range goldenKs {
			rec := &moveRecorder{a: New(k), h: sha256.New()}
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunChecked(w, rec, 0)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tr, k, err)
			}
			if !res.FullyExplored || !res.AllAtRoot {
				t.Fatalf("%s k=%d: bad terminal state", tr, k)
			}
			sum := rec.h.Sum(nil)
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
	var events []sim.ExploreEvent
	for round := 0; ; round++ {
		moves, err := p.SelectMoves(w.View(), events)
		if err != nil {
			t.Fatal(err)
		}
		var moved bool
		events, moved, err = w.Apply(moves)
		if err != nil {
			t.Fatal(err)
		}
		if !moved {
			t.Fatal("run ended before a round explored two children of one parent")
		}
		if round >= minRound && sharedParent(events) {
			break
		}
	}
	ckpt, err := sim.EncodeCheckpoint(w, p, events)
	if err != nil {
		t.Fatal(err)
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
			step := func(w *sim.World, p *Potential, events []sim.ExploreEvent) ([]sim.ExploreEvent, bool) {
				moves, err := p.SelectMoves(w.View(), events)
				if err != nil {
					t.Fatal(err)
				}
				events, moved, err := w.Apply(moves)
				if err != nil {
					t.Fatal(err)
				}
				return events, moved
			}
			w, err := sim.NewWorld(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			p := New(k)
			var ckpts [][]byte
			var events []sim.ExploreEvent
			for moved := true; moved; {
				events, moved = step(w, p, events)
				ckpt, err := sim.EncodeCheckpoint(w, p, events)
				if err != nil {
					t.Fatal(err)
				}
				ckpts = append(ckpts, ckpt)
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
				for i := r; i < len(ckpts); i++ {
					if i > r {
						events, _ = step(w2, p2, events)
					}
					got, err := sim.EncodeCheckpoint(w2, p2, events)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, ckpts[i]) {
						t.Fatalf("%s k=%d: restored at checkpoint %d, checkpoint %d differs", tr, k, r, i)
					}
				}
			}
		}
	}
}
