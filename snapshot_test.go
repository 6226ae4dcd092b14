package bfdn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bfdn/internal/sim"
	"bfdn/internal/tree"
)

// errKill simulates a crash: the checkpoint save hook returns it to abort
// the run right after a checkpoint was taken, like a process killed between
// a WAL fsync and the next round.
var errKill = errors.New("simulated crash")

// TestSnapshotRestoreByteIdentity is the S30 property suite: for every
// selectable algorithm, a run that is killed at its first checkpoint and
// restored into a fresh world + algorithm must (a) re-encode the checkpoint
// byte-identically before continuing, (b) finish with a Result deep-equal to
// the uninterrupted run's, and (c) end in a final state whose checkpoint
// encoding is byte-identical to the uninterrupted run's.
func TestSnapshotRestoreByteIdentity(t *testing.T) {
	cases := []struct {
		family Family
		n, d   int
		k      int
		// sharedParent marks a case whose Potential checkpoint must hold at
		// least two pending explorations at one parent: their order decides
		// where each new child lands in the slot sequence.
		sharedParent bool
	}{
		{FamilyRandom, 300, 12, 4, false},
		{FamilyComb, 160, 10, 3, false},
		{FamilyBinary, 250, 8, 8, true},
	}
	for _, alg := range Algorithms() {
		for _, tc := range cases {
			tc := tc
			name := fmt.Sprintf("%s/%s_n%d_k%d", alg, tc.family, tc.n, tc.k)
			t.Run(name, func(t *testing.T) {
				tr, err := GenerateTree(tc.family, tc.n, tc.d, 7)
				if err != nil {
					t.Fatalf("GenerateTree: %v", err)
				}
				cfg := defaultConfig()
				cfg.alg = alg

				build := func() (*sim.World, sim.Algorithm) {
					a, _, err := newSimAlgorithm(tr, tc.k, cfg)
					if err != nil {
						t.Fatalf("newSimAlgorithm: %v", err)
					}
					w, err := sim.NewWorld(tr.t, tc.k)
					if err != nil {
						t.Fatalf("NewWorld: %v", err)
					}
					return w, a
				}

				// Uninterrupted reference run.
				w1, a1 := build()
				want, err := sim.RunContext(context.Background(), w1, a1, 0)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				wantFinal, err := sim.EncodeCheckpoint(w1, a1, nil)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(final reference): %v", err)
				}

				// Killed run: crash right after the first checkpoint.
				w2, a2 := build()
				var ckpt []byte
				_, err = sim.RunCheckpointedContext(context.Background(), w2, a2, 0, nil, 3,
					func(state []byte) error {
						ckpt = append([]byte(nil), state...)
						return errKill
					})
				if !errors.Is(err, errKill) {
					t.Fatalf("killed run: want errKill, got %v", err)
				}
				if len(ckpt) == 0 {
					t.Fatal("no checkpoint captured before the crash")
				}

				// Restore into a completely fresh world + algorithm.
				w3, a3 := build()
				events, err := sim.RestoreCheckpoint(ckpt, w3, a3)
				if err != nil {
					t.Fatalf("RestoreCheckpoint: %v", err)
				}
				if tc.sharedParent && alg == Potential && !sharedParent(events) {
					t.Fatalf("checkpoint's %d pending events explore no parent twice", len(events))
				}
				resnap, err := sim.EncodeCheckpoint(w3, a3, events)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(restored): %v", err)
				}
				if !bytes.Equal(resnap, ckpt) {
					t.Fatalf("restore → re-snapshot is not byte-identical: %d vs %d bytes", len(resnap), len(ckpt))
				}

				got, err := sim.RunCheckpointedContext(context.Background(), w3, a3, 0, events, 0, nil)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed result differs:\n got %+v\nwant %+v", got, want)
				}
				gotFinal, err := sim.EncodeCheckpoint(w3, a3, nil)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(final resumed): %v", err)
				}
				if !bytes.Equal(gotFinal, wantFinal) {
					t.Fatal("final checkpoint of the resumed run differs from the uninterrupted run")
				}
			})
		}
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

// TestRestoreCheckpointValidation exercises the failure paths: wrong robot
// count, wrong algorithm type, corrupt bytes and pending events that name
// nodes or robots the world does not hold must all error cleanly.
func TestRestoreCheckpointValidation(t *testing.T) {
	tr, err := GenerateTree(FamilyRandom, 120, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	a, _, err := newSimAlgorithm(tr, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(tr.t, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	if _, err := sim.RunCheckpointedContext(context.Background(), w, a, 0, nil, 2,
		func(state []byte) error {
			ckpt = append([]byte(nil), state...)
			return errKill
		}); !errors.Is(err, errKill) {
		t.Fatalf("want errKill, got %v", err)
	}

	// Wrong robot count.
	w5, _ := sim.NewWorld(tr.t, 5)
	a5, _, _ := newSimAlgorithm(tr, 5, cfg)
	if _, err := sim.RestoreCheckpoint(ckpt, w5, a5); err == nil {
		t.Fatal("restore into k=5 world accepted a k=4 checkpoint")
	}

	// Wrong algorithm type.
	wx, _ := sim.NewWorld(tr.t, 4)
	cfgCTE := defaultConfig()
	cfgCTE.alg = CTE
	ax, _, _ := newSimAlgorithm(tr, 4, cfgCTE)
	if _, err := sim.RestoreCheckpoint(ckpt, wx, ax); err == nil {
		t.Fatal("restore into a CTE instance accepted a BFDN checkpoint")
	}

	// Truncated bytes.
	wt, _ := sim.NewWorld(tr.t, 4)
	at, _, _ := newSimAlgorithm(tr, 4, cfg)
	if _, err := sim.RestoreCheckpoint(ckpt[:len(ckpt)/2], wt, at); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}

	// Pending explore events that are no explore of this world. They used to
	// be accepted, or for a Nil parent to index the dangling table at -1.
	for _, ev := range []sim.ExploreEvent{
		{Parent: 0, Child: 1 << 20},
		{Parent: tree.Nil, Child: 0},
		{Parent: tr.t.Parent(1), Child: 1, Robot: 9},
	} {
		bad, err := sim.EncodeCheckpoint(w, a, []sim.ExploreEvent{ev})
		if err != nil {
			t.Fatal(err)
		}
		we, _ := sim.NewWorld(tr.t, 4)
		ae, _, _ := newSimAlgorithm(tr, 4, cfg)
		if _, err := sim.RestoreCheckpoint(bad, we, ae); err == nil {
			t.Errorf("checkpoint with pending event %+v accepted", ev)
		}
	}
}
