package async

import (
	"fmt"

	"bfdn/internal/tree"
)

// openIndex mirrors core's anchor index for the asynchronous engine: open
// nodes bucketed by depth with lazy min-load heaps; the minimal open depth
// is non-decreasing here too (claims only open strictly deeper nodes).
// Loads and open flags are NodeID-indexed slices, grown on first touch and
// truncated by reset, so a recycled index allocates nothing.
type openIndex struct {
	buckets  []oBucket
	minDepth int
	loads    []int32
	open     []bool
}

type oBucket struct {
	heap oHeap
	size int
}

type oEntry struct {
	node tree.NodeID
	load int32
}

// oHeap is a min-heap on load. Its sift-up and sift-down make exactly
// container/heap's comparisons and swaps, so entries of equal load pop in
// the order they always have.
type oHeap []oEntry

func (h *oHeap) push(x oEntry) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].load >= q[i].load {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *oHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].load < q[j].load {
			j++
		}
		if q[j].load >= q[i].load {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
}

func newOpenIndex() *openIndex { return &openIndex{} }

// reset empties the index for reuse, keeping the capacity of every slice
// and of every bucket's heap.
func (a *openIndex) reset() {
	a.buckets = a.buckets[:0]
	a.minDepth = 0
	a.loads = a.loads[:0]
	a.open = a.open[:0]
}

// isOpen reports whether v is in the index.
func (a *openIndex) isOpen(v tree.NodeID) bool { return int(v) < len(a.open) && a.open[v] }

// load reports v's anchor load.
func (a *openIndex) load(v tree.NodeID) int32 {
	if int(v) >= len(a.loads) {
		return 0
	}
	return a.loads[v]
}

// touch extends loads and open to cover v, zeroing what it exposes.
func (a *openIndex) touch(v tree.NodeID) {
	n := int(v) + 1
	if n <= len(a.loads) {
		return
	}
	a.loads = growZeroed(a.loads, n)
	a.open = growZeroed(a.open, n)
}

func growZeroed[T any](s []T, n int) []T {
	if n > cap(s) {
		return append(s, make([]T, n-len(s))...)
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

func (a *openIndex) bucket(d int) *oBucket {
	for d >= len(a.buckets) {
		if len(a.buckets) < cap(a.buckets) {
			a.buckets = a.buckets[:len(a.buckets)+1]
			b := &a.buckets[len(a.buckets)-1]
			b.heap, b.size = b.heap[:0], 0
		} else {
			a.buckets = append(a.buckets, oBucket{})
		}
	}
	return &a.buckets[d]
}

func (a *openIndex) add(v tree.NodeID, d int) {
	if a.isOpen(v) {
		return
	}
	a.touch(v)
	a.open[v] = true
	b := a.bucket(d)
	b.size++
	b.heap.push(oEntry{node: v, load: a.loads[v]})
}

func (a *openIndex) remove(v tree.NodeID, d int) {
	if !a.isOpen(v) {
		return
	}
	a.open[v] = false
	a.buckets[d].size--
}

func (a *openIndex) changeLoad(v tree.NodeID, d, delta int) {
	a.touch(v)
	a.loads[v] += int32(delta)
	if a.open[v] {
		b := a.bucket(d)
		b.heap.push(oEntry{node: v, load: a.loads[v]})
	}
}

// minLoadAtMinDepth returns the least-loaded open node at the minimal open
// depth; ok is false when nothing is open. The lazy heap holds at least one
// live entry for every open node at the bucket's depth (add and changeLoad
// both push), so draining it while size > 0 is a size/heap desync — an
// internal invariant violation reported as an error rather than a panic
// deep in the event loop.
func (a *openIndex) minLoadAtMinDepth() (tree.NodeID, int, bool, error) {
	for a.minDepth < len(a.buckets) && a.buckets[a.minDepth].size == 0 {
		a.minDepth++
	}
	if a.minDepth >= len(a.buckets) {
		return 0, 0, false, nil
	}
	b := &a.buckets[a.minDepth]
	for len(b.heap) > 0 {
		e := b.heap[0]
		if !a.open[e.node] || e.load != a.loads[e.node] {
			b.heap.pop()
			continue
		}
		return e.node, a.minDepth, true, nil
	}
	return 0, 0, false, fmt.Errorf("async: open-index invariant violated: depth %d reports %d open nodes but its heap is empty", a.minDepth, b.size)
}
