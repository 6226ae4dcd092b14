package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// TestGoldenRoundCounts pins exact round counts for fixed seeds: BFDN is
// deterministic, so any change here signals a behavioural change in the
// algorithm or the simulator and must be reviewed deliberately.
func TestGoldenRoundCounts(t *testing.T) {
	cases := []struct {
		name string
		tr   *tree.Tree
		k    int
		want int
	}{
		{"path50-k4", tree.Path(50), 4, 98},
		{"star64-k8", tree.Star(65), 8, 16},
		{"binary d7-k4", tree.KAry(2, 7), 4, 129},
		{"spider 6x9-k3", tree.Spider(6, 9), 3, 36},
		{"random-k8", tree.Random(500, 15, rand.New(rand.NewSource(42))), 8, 250},
	}
	for _, tc := range cases {
		res, _ := runBFDN(t, tc.tr, tc.k)
		if res.Rounds != tc.want {
			t.Errorf("%s: rounds = %d, want pinned %d", tc.name, res.Rounds, tc.want)
		}
	}
	// Determinism across repetitions is the enforceable half.
	for _, tc := range cases {
		a, _ := runBFDN(t, tc.tr, tc.k)
		b, _ := runBFDN(t, tc.tr, tc.k)
		if a.Rounds != b.Rounds {
			t.Errorf("%s: nondeterministic rounds %d vs %d", tc.name, a.Rounds, b.Rounds)
		}
	}
}

// goldenTrees is the fixed tree set the move fingerprints are taken over:
// every generator family, plus random trees wide and deep enough that
// anchors cross many depths and load ties.
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

// hashMoves is a round hook that hashes every move of every round into
// h, so a change to any single re-anchoring decision shows.
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

// TestGoldenMoveFingerprints pins sync BFDN's exact decisions under every
// re-anchoring policy, with and without the shortcut ablation: per
// configuration, a SHA-256 over every round's moves on every golden tree at
// every golden k. RandomOpen draws from a fixed-seed source per run.
func TestGoldenMoveFingerprints(t *testing.T) {
	want := map[string]string{
		"least-loaded":          "9f2031200ed3db48c88ddc0104e1dcd0f6909863ed07b55f86026a7a6b736bbf",
		"least-loaded/shortcut": "b4f43b81d008feb718c04d1946f57a67d2aa74a0be653c3ad8e33f4d3f0c9b90",
		"round-robin":           "d6b4442d2ec1a5d84809b9d02449afb1c5346532cae0ee77a24eba9294e05df5",
		"round-robin/shortcut":  "bd7e40259ca5242c4855b6adb214bb3af31c3dd1b8026d084fd42ffd814a6729",
		"random":                "9e13f6908ae4827caa07c8907965863372ea7e1bb128982dcba4d90448952e1e",
		"random/shortcut":       "9eda60ec2e8ee576064c3270c7242666e60d76432575102f0b269bd6e7772819",
		"most-loaded":           "787ad6851b745907fb559096ba8fbe2ed30ceed005822500961e4687e75df693",
		"most-loaded/shortcut":  "57ea64748a9088694949372dc9c0c9328d681b008affaacd769650d8aee76338",
	}
	trees := goldenTrees()
	for _, policy := range []Policy{LeastLoaded, RoundRobin, RandomOpen, MostLoaded} {
		for _, shortcut := range []bool{false, true} {
			key := policy.String()
			if shortcut {
				key += "/shortcut"
			}
			all := sha256.New()
			for _, tr := range trees {
				for _, k := range goldenKs {
					opts := []Option{WithPolicy(policy), WithRand(rand.New(rand.NewSource(5)))}
					if shortcut {
						opts = append(opts, WithShortcutReanchor())
					}
					h := sha256.New()
					w, err := sim.NewWorld(tr, k)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.RunContext(context.Background(), w, NewAlgorithm(k, opts...), 0, nil, hashMoves(h))
					if err != nil {
						t.Fatalf("%s %s k=%d: %v", key, tr, k, err)
					}
					if !res.FullyExplored || !res.AllAtRoot {
						t.Fatalf("%s %s k=%d: bad terminal state", key, tr, k)
					}
					sum := h.Sum(nil)
					t.Logf("%s %s k=%d: rounds=%d %x", key, tr, k, res.Rounds, sum)
					all.Write(sum)
				}
			}
			if got := hex.EncodeToString(all.Sum(nil)); got != want[key] {
				t.Errorf("%s: fingerprint = %s, want %s (run with -v for per-case digests)", key, got, want[key])
			}
		}
	}
}

// TestGoldenCheckpoint pins the SHA-256 of a mid-run checkpoint of
// whole-tree BFDN, with and without the shortcut ablation, and checks that
// it restores and finishes with the uninterrupted run's Result.
func TestGoldenCheckpoint(t *testing.T) {
	want := map[string]string{
		"least-loaded":          "343dd6acf90a1b111131c9ba1b7766775a9f4eb70e87c7e721890b403de34b26",
		"least-loaded/shortcut": "87493e7108f20d28b300c59125adcac48e2264cf1e60e02671e59c10e9909ef7",
	}
	tr := tree.Random(400, 12, rand.New(rand.NewSource(7)))
	const k, rounds = 8, 40
	for _, shortcut := range []bool{false, true} {
		key := "least-loaded"
		var opts []Option
		if shortcut {
			key += "/shortcut"
			opts = append(opts, WithShortcutReanchor())
		}
		w, err := sim.NewWorld(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAlgorithm(k, opts...)
		var ckpt []byte
		wantRes, err := sim.RunContext(context.Background(), w, a, 0, nil, sim.SaveEvery(w, a, rounds, func(state []byte) error {
			if ckpt == nil {
				ckpt = state
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(ckpt)
		if got := hex.EncodeToString(sum[:]); got != want[key] {
			t.Errorf("%s: checkpoint at round %d (%d bytes) hashes to %s, want %s",
				key, rounds, len(ckpt), got, want[key])
		}

		if w, err = sim.NewWorld(tr, k); err != nil {
			t.Fatal(err)
		}
		b := NewAlgorithm(k, opts...)
		events, err := sim.RestoreCheckpoint(ckpt, w, b)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		res, err := sim.RunContext(context.Background(), w, b, 0, events, nil)
		if err != nil {
			t.Fatalf("%s: resumed run: %v", key, err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Errorf("%s: resumed run = %+v, want %+v", key, res, wantRes)
		}
	}
}
