package bfdn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bfdn/internal/levelwise"
	"bfdn/internal/sim"
	"bfdn/internal/snap"
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
				want, err := sim.Run(w1, a1, 0)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				wantFinal, err := sim.EncodeCheckpoint(w1, a1, nil)
				if err != nil {
					t.Fatalf("EncodeCheckpoint(final reference): %v", err)
				}

				// Killed run: crash right after the first checkpoint.
				w2, a2 := build()
				ckpt := checkpointAt(t, w2, a2, 3)

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

				got, err := sim.RunContext(context.Background(), w3, a3, 0, events, nil)
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

// checkpointAt runs a on w to its first checkpoint, at the given round, and
// crashes the run there: it returns the checkpoint the crash left behind.
func checkpointAt(t *testing.T, w *sim.World, a sim.Algorithm, round int) []byte {
	t.Helper()
	var ckpt []byte
	_, err := sim.RunContext(context.Background(), w, a, 0, nil, sim.SaveEvery(w, a, round, func(state []byte) error {
		ckpt = state
		return errKill
	}))
	if !errors.Is(err, errKill) {
		t.Fatalf("killed run: want errKill, got %v", err)
	}
	return ckpt
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
	ckpt := checkpointAt(t, w, a, 2)

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

	// Pending explore events that are no explore of this world, or one
	// explore listed twice. They used to be accepted, or for a Nil parent to
	// index the dangling table at -1.
	wp, _ := sim.NewWorld(tr.t, 4)
	ap, _, _ := newSimAlgorithm(tr, 4, cfg)
	pending, err := sim.RestoreCheckpoint(ckpt, wp, ap)
	if err != nil || len(pending) == 0 {
		t.Fatalf("the round-2 checkpoint restores with %d pending events: %v", len(pending), err)
	}
	for _, evs := range [][]sim.ExploreEvent{
		{{Parent: 0, Child: 1 << 20}},
		{{Parent: tree.Nil, Child: 0}},
		{{Parent: tr.t.Parent(1), Child: 1, Robot: 9}},
		{pending[0], pending[0]},
	} {
		bad, err := sim.EncodeCheckpoint(w, a, evs)
		if err != nil {
			t.Fatal(err)
		}
		we, _ := sim.NewWorld(tr.t, 4)
		ae, _, _ := newSimAlgorithm(tr, 4, cfg)
		if _, err := sim.RestoreCheckpoint(bad, we, ae); err == nil {
			t.Errorf("checkpoint with pending events %+v accepted", evs)
		}
	}

	// A world no run could reach, in every algorithm's checkpoint after 3
	// rounds: a robot off the tree or on an unexplored node, or an explored
	// node under an unexplored parent. Restore used to accept all of them;
	// the resumed runs then panicked, reported a full exploration, or ran to
	// their round cap.
	pt, err := GenerateTree(FamilyRandom, 300, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := int32(pt.N() - 1) // unexplored at round 3, and so is its parent
	if last != hiddenNode {
		t.Fatalf("the probe tree has %d nodes, want %d", pt.N(), hiddenNode+1)
	}
	probes := map[string]func(pos []int32, explored []bool, count *int, nextKid []int32){
		"robot below 0":   func(pos []int32, _ []bool, _ *int, _ []int32) { pos[0] = -3 },
		"robot past n":    func(pos []int32, _ []bool, _ *int, _ []int32) { pos[0] = last + 6 },
		"robot on hidden": func(pos []int32, _ []bool, _ *int, _ []int32) { pos[0] = last },
		"hidden parent": func(_ []int32, explored []bool, count *int, nextKid []int32) {
			explored[last], nextKid[last] = true, 0
			*count++
		},
	}
	for _, alg := range Algorithms() {
		cfg := defaultConfig()
		cfg.alg = alg
		build := func() (*sim.World, sim.Algorithm) {
			a, _, err := newSimAlgorithm(pt, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := sim.NewWorld(pt.t, 4)
			if err != nil {
				t.Fatal(err)
			}
			return w, a
		}
		w, a := build()
		ckpt := checkpointAt(t, w, a, 3)
		for name, edit := range probes {
			w, a := build()
			if _, err := sim.RestoreCheckpoint(rewriteWorld(ckpt, edit), w, a); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("%s: %s: RestoreCheckpoint = %v, want snap.ErrCorrupt", alg, name, err)
			}
		}
		if edit := algProbes[alg]; edit != nil {
			w, a := build()
			if _, err := sim.RestoreCheckpoint(rewriteAlgorithm(t, ckpt, pt.t, 4, edit), w, a); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("%s: RestoreCheckpoint of an algorithm state its world contradicts = %v, want snap.ErrCorrupt", alg, err)
			}
		}
	}

	// Levelwise's round-75 checkpoint from internal/levelwise's
	// TestGoldenCheckpoint, with node 4's six open edges listed as none.
	// RestoreCheckpoint used to accept it; the resumed run then ended at
	// round 614 with every robot at the root and the tree not fully
	// explored.
	lt := tree.Random(400, 12, rand.New(rand.NewSource(7)))
	build := func() (*sim.World, sim.Algorithm) {
		w, err := sim.NewWorld(lt, 8)
		if err != nil {
			t.Fatal(err)
		}
		return w, levelwise.New(8)
	}
	closeNode4 := func(d *snap.Decoder, e *snap.Encoder) {
		e.Int(d.Int())   // k
		e.Bool(d.Bool()) // seeded
		e.Int(d.Int())   // phases
		n := d.Int()
		e.Int(n)
		for i := 0; i < n; i++ {
			node, count := d.Int32(), d.Int()
			if node == 4 {
				if count != 6 {
					t.Fatalf("node 4 has %d open edges at round 75, want 6", count)
				}
				count = 0
			}
			e.Int32(node)
			e.Int(count)
		}
	}
	w8, a8 := build()
	ckpt8 := checkpointAt(t, w8, a8, 75)
	w8, a8 = build()
	if _, err := sim.RestoreCheckpoint(rewriteAlgorithm(t, ckpt8, lt, 8, closeNode4), w8, a8); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("levelwise: node 4 closed: RestoreCheckpoint = %v, want snap.ErrCorrupt", err)
	}
}

// algProbes edits the algorithm half of a round-3 checkpoint on the tree of
// TestRestoreCheckpointValidation so it contradicts the world, one edit per
// algorithm with state: a node the world has not explored (BFDN's first
// anchor, BFDN_ℓ's top instance root, Levelwise's first open node), or the
// root's open count one off (CTE, Tree-Mining and Potential keep the
// per-subtree open counts). RestoreCheckpoint used to accept all six: the
// first three failed on a later round, and nothing checked the counts.
var algProbes = map[Algorithm]func(d *snap.Decoder, e *snap.Encoder){
	BFDN: func(d *snap.Decoder, e *snap.Encoder) {
		e.Ints(d.Ints())    // robots
		e.Int32(d.Int32())  // root
		e.Int(d.Int())      // root depth
		e.Bool(d.Bool())    // seeded
		d.Int32()           // robot 0's anchor
		e.Int32(hiddenNode) // replaced
	},
	BFDNRecursive: func(d *snap.Decoder, e *snap.Encoder) {
		e.Int(d.Int())       // k
		e.Int(d.Int())       // ℓ
		e.Int(d.Int())       // phase
		e.Bool(d.Bool())     // ran once
		e.Bool(d.Bool())     // homing
		e.Uint64(d.Uint64()) // the top instance: divide-depth at ℓ = 2
		e.Int(d.Int())       // level
		e.Int(d.Int())       // k*
		e.Int(d.Int())       // base step
		e.Ints(d.Ints())     // robots
		d.Int32()            // root
		e.Int32(hiddenNode)  // replaced
	},
	Levelwise: func(d *snap.Decoder, e *snap.Encoder) {
		e.Int(d.Int())      // k
		e.Bool(d.Bool())    // seeded
		e.Int(d.Int())      // phases
		e.Int(d.Int())      // open-list length
		d.Int32()           // first open node
		e.Int32(hiddenNode) // replaced
	},
	CTE:        offByOne,
	TreeMining: offByOne,
	Potential:  offByOne,
}

// hiddenNode is a node TestRestoreCheckpointValidation's round-3 world
// has not explored: the last node of its 300-node tree.
const hiddenNode = 299

// offByOne raises the root's open count in a k, seeded, counts state.
func offByOne(d *snap.Decoder, e *snap.Encoder) {
	e.Int(d.Int())
	e.Bool(d.Bool())
	open := d.Int32s()
	open[0]++
	e.Int32s(open)
}

// rewriteAlgorithm lets edit read the algorithm half of a checkpoint of a
// k-robot run on tr up to the field it changes, writing what it keeps and
// the change, and splices that between the checkpoint's world and pending
// events and the rest of the algorithm half.
func rewriteAlgorithm(t *testing.T, ckpt []byte, tr *tree.Tree, k int, edit func(d *snap.Decoder, e *snap.Encoder)) []byte {
	t.Helper()
	w, err := sim.NewWorld(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	d := snap.NewDecoder(ckpt)
	d.Uint64()
	if err := w.Restore(d); err != nil {
		t.Fatal(err)
	}
	for i := d.Int(); i > 0; i-- {
		d.Int32()
		d.Int32()
		d.Int()
		d.Int()
	}
	out := append([]byte(nil), ckpt[:len(ckpt)-d.Rest()]...)
	var e snap.Encoder
	edit(d, &e)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	out = append(out, e.Bytes()...)
	return append(out, ckpt[len(ckpt)-d.Rest():]...)
}

// rewriteWorld decodes the world section of a checkpoint up to its cursors,
// lets edit change the robot positions, explored set, explored count and
// explored-children cursors, and re-encodes the checkpoint around them.
func rewriteWorld(ckpt []byte, edit func(pos []int32, explored []bool, count *int, nextKid []int32)) []byte {
	d := snap.NewDecoder(ckpt)
	version, k, n := d.Uint64(), d.Int(), d.Int()
	pos := make([]int32, k)
	for i := range pos {
		pos[i] = d.Int32()
	}
	explored, count, nextKid := d.Bools(), d.Int(), d.Int32s()
	edit(pos, explored, &count, nextKid)
	var e snap.Encoder
	e.Uint64(version)
	e.Int(k)
	e.Int(n)
	for _, p := range pos {
		e.Int32(p)
	}
	e.Bools(explored)
	e.Int(count)
	e.Int32s(nextKid)
	return append(e.Bytes(), ckpt[len(ckpt)-d.Rest():]...)
}

// FuzzCheckpoint feeds arbitrary bytes to RestoreCheckpoint for every sync
// algorithm on a small world, and resumes an accepted checkpoint for a few
// rounds with a Checker after every round: a checkpoint must be refused
// with an error, or resume into legal rounds (an algorithm may still refuse
// its restored state with an error), never a panic. testdata/fuzz/
// FuzzCheckpoint seeds it with real checkpoints of every algorithm and
// mutations of them.
func FuzzCheckpoint(f *testing.F) {
	tr, err := GenerateTree(FamilyRandom, 60, 6, 3)
	if err != nil {
		f.Fatal(err)
	}
	const k = 4
	algs := Algorithms()
	f.Fuzz(func(t *testing.T, data []byte, alg uint8) {
		cfg := defaultConfig()
		cfg.alg = algs[int(alg)%len(algs)]
		a, _, err := newSimAlgorithm(tr, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.NewWorld(tr.t, k)
		if err != nil {
			t.Fatal(err)
		}
		events, err := sim.RestoreCheckpoint(data, w, a)
		if err != nil {
			return
		}
		checker := sim.NewChecker(w)
		_, _ = sim.RunContext(context.Background(), w, a, int64(w.Round())+50, events, func(_ []sim.Move, _ []sim.ExploreEvent, moved bool) (bool, error) {
			if err := checker.Check(); err != nil {
				t.Fatalf("%s: an accepted checkpoint resumed into round %d: %v", cfg.alg, w.Round(), err)
			}
			return !moved, nil
		})
	})
}
