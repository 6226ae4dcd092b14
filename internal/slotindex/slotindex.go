// Package slotindex is the prefix-sum index behind both Potential engines'
// DFS-slot rule (Cosson–Massoulié, arXiv:2311.01354; DESIGN.md S28/S31):
// robot i chases open slot ⌊i·m/k⌋ of the m open edges, enumerated in
// depth-first order of the explored tree, where a node's explored child
// subtrees come in port order before its own open edges.
//
// That order is the post-order of the explored tree with every node
// weighted by its own open edges. The explored tree is ancestor-closed and
// edges are handed out in port order, so it is also the hidden tree's
// post-order restricted to explored nodes: a fixed sequence of positions
// in which exploration only changes weights. Index keeps those weights in
// a Fenwick tree, so a weight change and a slot selection each cost
// O(log n) over one flat array. The index knows nothing of trees: the
// simulators that own one map positions to nodes.
package slotindex

import "fmt"

// Index holds non-negative weights at positions 0..n-1 with O(log n)
// updates and prefix-sum selection. The zero value is an empty index.
type Index struct {
	// sums is the Fenwick array, 1-based: sums[i] is the weight of
	// positions i−lowbit(i) .. i−1.
	sums  []int32
	top   int // the highest power of two ≤ n, 0 when n = 0
	total int
}

// Build resets x to n positions, position i weighing weight(i), in O(n),
// reusing its storage when it is large enough.
func (x *Index) Build(n int, weight func(i int) int32) {
	if cap(x.sums) > n {
		x.sums = x.sums[:n+1]
	} else {
		x.sums = make([]int32, n+1)
	}
	x.total = 0
	for i := 1; i <= n; i++ {
		w := weight(i - 1)
		x.sums[i] = w
		x.total += int(w)
	}
	// Each entry adds its finished sum into the next entry that covers it.
	for i := 1; i <= n; i++ {
		if j := i + i&-i; j <= n {
			x.sums[j] += x.sums[i]
		}
	}
	x.top = 0
	for p := 1; p <= n; p <<= 1 {
		x.top = p
	}
}

// Total reports the summed weight of every position.
func (x *Index) Total() int { return x.total }

// Add changes position i's weight by d. The weight must stay non-negative.
func (x *Index) Add(i int, d int32) {
	x.total += int(d)
	for i++; i < len(x.sums); i += i & -i {
		x.sums[i] += d
	}
}

// Select returns the position holding slot s: the one whose weight covers
// position s of the sequence laid out as the weights end to end, in
// position order. Zero-weight positions hold no slot and are never
// selected. It fails when s is outside [0, Total()).
func (x *Index) Select(s int) (int, error) {
	if s < 0 || s >= x.total {
		return -1, fmt.Errorf("slotindex: slot %d outside [0, %d)", s, x.total)
	}
	// Descend from the widest block: pos ends as the longest prefix whose
	// weight is at most s, so position pos holds the slot.
	pos, r := 0, int32(s)
	for step := x.top; step > 0; step >>= 1 {
		if next := pos + step; next < len(x.sums) && x.sums[next] <= r {
			pos = next
			r -= x.sums[next]
		}
	}
	return pos, nil
}
