package openindex

import (
	"bytes"
	"math/rand"
	"testing"

	"bfdn/internal/snap"
	"bfdn/internal/tree"
)

func (x *Index) isOpen(v tree.NodeID) bool { return x.at(v).pos >= 0 }

// pick is the Reanchor query: the best-loaded node at the minimal open
// depth.
func pick(x *Index) (tree.NodeID, int, bool, error) {
	d, ok := x.MinOpenDepth(-1)
	if !ok {
		return 0, 0, false, nil
	}
	v, err := x.PickMinLoad(d)
	return v, d, err == nil, err
}

// TestInvariantRandomOps drives the index with random AddOpen / Close /
// ChangeLoad sequences, in both load orders, and checks the Reanchor query
// against a brute-force scan after every operation: correct node choice,
// never an invariant error, never a panic.
func TestInvariantRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const nodes, depths = 60, 6
	for trial := 0; trial < 100; trial++ {
		mostLoaded := trial%2 == 1
		idx := New(mostLoaded)
		depth := make(map[tree.NodeID]int)
		// The minimal open depth is monotone by design (only strictly
		// deeper nodes open as exploration progresses), so assign each node
		// a depth and only add at depths ≥ the current minimum open depth.
		for op := 0; op < 400; op++ {
			v := tree.NodeID(rng.Intn(nodes))
			switch rng.Intn(4) {
			case 0: // add at a legal depth
				d, ok := depth[v]
				if !ok {
					d = minOpenDepth(idx, depth, nodes) + rng.Intn(depths)
					depth[v] = d
				}
				if idx.isOpen(v) || d < minOpenDepth(idx, depth, nodes) {
					continue
				}
				idx.AddOpen(v, d)
			case 1: // close an open node
				if d, ok := depth[v]; ok && idx.isOpen(v) {
					idx.Close(v, d)
				}
			default: // load churn, open or not
				d, ok := depth[v]
				if !ok {
					d = rng.Intn(depths)
					depth[v] = d
				}
				idx.ChangeLoad(v, d, 1-2*rng.Intn(2))
			}
			got, gotDepth, ok, err := pick(idx)
			if err != nil {
				t.Fatalf("trial %d op %d: invariant error: %v", trial, op, err)
			}
			wantDepth, anyOpen := bruteMinDepth(idx, depth, nodes)
			if ok != anyOpen {
				t.Fatalf("trial %d op %d: ok=%v, brute force says open=%v", trial, op, ok, anyOpen)
			}
			if !ok {
				continue
			}
			if gotDepth != wantDepth {
				t.Fatalf("trial %d op %d: depth %d, want %d", trial, op, gotDepth, wantDepth)
			}
			if !idx.isOpen(got) || depth[got] != gotDepth {
				t.Fatalf("trial %d op %d: returned node %d not open at depth %d", trial, op, got, gotDepth)
			}
			if want := bruteBestLoad(idx, depth, wantDepth, nodes, mostLoaded); idx.at(got).load != want {
				t.Fatalf("trial %d op %d: load %d at node %d, brute-force best is %d", trial, op, idx.at(got).load, got, want)
			}
			if n := len(idx.Members(gotDepth)); n != bruteCount(idx, depth, gotDepth, nodes) {
				t.Fatalf("trial %d op %d: %d members at depth %d, brute force disagrees", trial, op, n, gotDepth)
			}
		}
	}
}

func minOpenDepth(idx *Index, depth map[tree.NodeID]int, nodes int) int {
	d, ok := bruteMinDepth(idx, depth, nodes)
	if !ok {
		return idx.minDepth
	}
	return d
}

// bruteMinDepth scans every node ID below nodes, the whole domain the
// random operations draw from.
func bruteMinDepth(idx *Index, depth map[tree.NodeID]int, nodes int) (int, bool) {
	best, found := 0, false
	for v := tree.NodeID(0); v < tree.NodeID(nodes); v++ {
		if idx.isOpen(v) && (!found || depth[v] < best) {
			best, found = depth[v], true
		}
	}
	return best, found
}

func bruteBestLoad(idx *Index, depth map[tree.NodeID]int, d, nodes int, mostLoaded bool) int32 {
	var best int32
	found := false
	for v := tree.NodeID(0); v < tree.NodeID(nodes); v++ {
		if !idx.isOpen(v) || depth[v] != d {
			continue
		}
		if l := idx.at(v).load; !found || mostLoaded && l > best || !mostLoaded && l < best {
			best, found = l, true
		}
	}
	return best
}

func bruteCount(idx *Index, depth map[tree.NodeID]int, d, nodes int) int {
	n := 0
	for v := tree.NodeID(0); v < tree.NodeID(nodes); v++ {
		if idx.isOpen(v) && depth[v] == d {
			n++
		}
	}
	return n
}

// TestDesyncIsAnError forces a bucket/heap desync: PickMinLoad must report
// an invariant error instead of panicking.
func TestDesyncIsAnError(t *testing.T) {
	idx := New(false)
	idx.AddOpen(3, 0)
	idx.buckets[0].heap = idx.buckets[0].heap[:0] // node 3 is still a member
	if _, err := idx.PickMinLoad(0); err == nil {
		t.Fatal("desynced index returned no error")
	}
	// A heap holding only stale entries desyncs the same way.
	idx2 := New(false)
	idx2.AddOpen(5, 2)
	idx2.ChangeLoad(5, 2, 1) // second (live) entry; first goes stale
	idx2.nodes[5].pos = -1   // corrupt: closed without leaving its bucket
	if d, ok := idx2.MinOpenDepth(-1); !ok || d != 2 {
		t.Fatalf("MinOpenDepth = %d, %v; want 2, true", d, ok)
	}
	if _, err := idx2.PickMinLoad(2); err == nil {
		t.Fatal("stale-heap desync returned no error")
	}
}

func snapshot(x *Index) []byte {
	var e snap.Encoder
	x.Snapshot(&e)
	return e.Bytes()
}

// TestResetEqualsFresh fills an index, resets it, and checks that it
// snapshots to the same bytes as a new one and answers like one.
func TestResetEqualsFresh(t *testing.T) {
	idx := New(false)
	idx.AddOpen(1, 1)
	idx.AddOpen(2, 3)
	idx.AddOpen(9, 3)
	idx.ChangeLoad(1, 1, 2)
	idx.Close(2, 3)
	if _, _, _, err := pick(idx); err != nil {
		t.Fatal(err)
	}
	idx.Reset()
	if got, want := snapshot(idx), snapshot(New(false)); !bytes.Equal(got, want) {
		t.Fatalf("reset index snapshots to %x, a new one to %x", got, want)
	}
	if _, _, ok, err := pick(idx); ok || err != nil {
		t.Fatalf("reset index still has open nodes (ok=%v err=%v)", ok, err)
	}
	idx.AddOpen(7, 0)
	if v, d, ok, err := pick(idx); !ok || err != nil || v != 7 || d != 0 {
		t.Fatalf("reset index unusable: %v %v %v %v", v, d, ok, err)
	}
}

// busyIndex returns an index after a mixed run of updates and queries, so
// its heaps hold stale entries and its cursors have moved.
func busyIndex() *Index {
	rng := rand.New(rand.NewSource(7))
	idx := New(false)
	for v := tree.NodeID(0); v < 40; v++ {
		idx.AddOpen(v, 1+int(v)/8)
	}
	for op := 0; op < 200; op++ {
		v := tree.NodeID(rng.Intn(40))
		idx.ChangeLoad(v, 1+int(v)/8, 1-2*rng.Intn(2))
		if rng.Intn(5) == 0 {
			idx.Close(v, 1+int(v)/8)
		}
		if d, ok := idx.MinOpenDepth(-1); ok {
			idx.PickRoundRobin(d)
		}
	}
	return idx
}

// TestSnapshotRoundTrip restores a snapshot into a recycled index and
// checks that both answer every later query identically.
func TestSnapshotRoundTrip(t *testing.T) {
	src := busyIndex()
	dst := busyIndex()
	dst.AddOpen(99, 12)
	if err := dst.Restore(snap.NewDecoder(snapshot(src))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(src), snapshot(dst)) {
		t.Fatal("restored index snapshots differently")
	}
	for i := 0; i < 60; i++ {
		a, da, oka, erra := pick(src)
		b, db, okb, errb := pick(dst)
		if a != b || da != db || oka != okb || erra != nil || errb != nil {
			t.Fatalf("query %d: %v %v %v %v vs %v %v %v %v", i, a, da, oka, erra, b, db, okb, errb)
		}
		if !oka {
			break
		}
		src.Close(a, da)
		dst.Close(b, db)
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: it must return an error or
// leave an index whose queries and updates do not panic.
func FuzzRestore(f *testing.F) {
	f.Add(snapshot(busyIndex()))
	f.Add(snapshot(New(false)))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx := New(false)
		if idx.Restore(snap.NewDecoder(data)) != nil {
			return
		}
		for i := 0; i < 100; i++ {
			d, ok := idx.MinOpenDepth(-1)
			if !ok {
				return
			}
			if _, err := idx.PickMinLoad(d); err != nil {
				return
			}
			v := idx.PickRoundRobin(d)
			idx.ChangeLoad(v, d, 1)
			idx.Close(v, d)
		}
	})
}
