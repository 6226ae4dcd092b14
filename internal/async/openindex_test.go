package async

import (
	"math/rand"
	"testing"

	"bfdn/internal/tree"
)

// TestOpenIndexInvariantRandomOps drives the index with random add /
// remove / changeLoad sequences and checks minLoadAtMinDepth against a
// brute-force scan after every operation: correct node choice, never an
// invariant error, and — the satellite fix — never a panic.
func TestOpenIndexInvariantRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const nodes, depths = 60, 6
	for trial := 0; trial < 50; trial++ {
		idx := newOpenIndex()
		depth := make(map[tree.NodeID]int)
		// minDepth is monotone by design (the engine only opens strictly
		// deeper nodes as claims progress), so assign each node a depth and
		// only add at depths ≥ the current minimum open depth.
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
				idx.add(v, d)
			case 1: // remove an open node
				if d, ok := depth[v]; ok && idx.isOpen(v) {
					idx.remove(v, d)
				}
			default: // load churn, open or not
				d, ok := depth[v]
				if !ok {
					d = rng.Intn(depths)
					depth[v] = d
				}
				idx.changeLoad(v, d, 1-2*rng.Intn(2))
			}
			got, gotDepth, ok, err := idx.minLoadAtMinDepth()
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
			if want := bruteMinLoad(idx, depth, wantDepth, nodes); idx.load(got) != want {
				t.Fatalf("trial %d op %d: load %d at node %d, brute-force min is %d", trial, op, idx.load(got), got, want)
			}
		}
	}
}

func minOpenDepth(idx *openIndex, depth map[tree.NodeID]int, nodes int) int {
	d, ok := bruteMinDepth(idx, depth, nodes)
	if !ok {
		return idx.minDepth
	}
	return d
}

// bruteMinDepth scans every node id below nodes, the whole domain the
// random operations draw from.
func bruteMinDepth(idx *openIndex, depth map[tree.NodeID]int, nodes int) (int, bool) {
	best, found := 0, false
	for v := tree.NodeID(0); v < tree.NodeID(nodes); v++ {
		if !idx.isOpen(v) {
			continue
		}
		if !found || depth[v] < best {
			best, found = depth[v], true
		}
	}
	return best, found
}

func bruteMinLoad(idx *openIndex, depth map[tree.NodeID]int, d, nodes int) int32 {
	var best int32
	found := false
	for v := tree.NodeID(0); v < tree.NodeID(nodes); v++ {
		if !idx.isOpen(v) || depth[v] != d {
			continue
		}
		if l := idx.load(v); !found || l < best {
			best, found = l, true
		}
	}
	return best
}

// TestOpenIndexDesyncIsAnErrorNotAPanic forces the size/heap desync that
// used to panic via the unguarded b.heap[0]: the index must surface an
// actionable invariant error instead.
func TestOpenIndexDesyncIsAnError(t *testing.T) {
	idx := newOpenIndex()
	idx.add(3, 0)
	idx.buckets[0].heap = idx.buckets[0].heap[:0] // size still 1
	if _, _, _, err := idx.minLoadAtMinDepth(); err == nil {
		t.Fatal("desynced index returned no error")
	}
	// A stale-entries-only heap desyncs the same way.
	idx2 := newOpenIndex()
	idx2.add(5, 2)
	idx2.changeLoad(5, 2, 1) // second (live) entry; first goes stale
	idx2.open[5] = false     // corrupt: open map dropped without remove
	idx2.buckets[2].size = 1 // but the bucket still claims one open node
	if _, _, _, err := idx2.minLoadAtMinDepth(); err == nil {
		t.Fatal("stale-heap desync returned no error")
	}
}

// TestOpenIndexReset: after reset the index is indistinguishable from a
// fresh one.
func TestOpenIndexReset(t *testing.T) {
	idx := newOpenIndex()
	idx.add(1, 1)
	idx.add(2, 3)
	idx.changeLoad(1, 1, 2)
	idx.remove(2, 3)
	idx.reset()
	if _, _, ok, err := idx.minLoadAtMinDepth(); ok || err != nil {
		t.Fatalf("reset index still has open nodes (ok=%v err=%v)", ok, err)
	}
	if len(idx.loads) != 0 || len(idx.open) != 0 || idx.minDepth != 0 {
		t.Fatalf("reset left state behind: %+v", idx)
	}
	idx.add(7, 0)
	if v, d, ok, err := idx.minLoadAtMinDepth(); !ok || err != nil || v != 7 || d != 0 {
		t.Fatalf("reset index unusable: %v %v %v %v", v, d, ok, err)
	}
}
