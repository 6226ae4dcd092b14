// Package slotindex is the order-statistics index behind both Potential
// engines' DFS-slot rule (Cosson–Massoulié, arXiv:2311.01354; DESIGN.md
// S28/S31): robot i chases open slot ⌊i·m/k⌋ of the m dangling edges,
// enumerated in depth-first order of the explored tree, where a node's
// explored child subtrees come in port order before its own dangling edges.
//
// That order is the post-order of the explored tree with every node
// weighted by its own open edges, and exploring edge (u, c) changes it by
// one local splice: c enters immediately before u, and u gives up one unit
// of weight. Index keeps the weighted sequence in a treap whose priorities
// are a fixed hash of the element handle, so insert-before, weight changes
// and slot selection each cost O(log n) expected time, with no randomness
// that could make two runs differ. The index knows nothing of trees: an
// element is a handle its caller maps to a node.
package slotindex

import "fmt"

const none = -1

// elem is one element of the sequence and one treap node: links to its
// left and right subtrees and its treap parent (none when absent), its own
// weight, and the total weight of its left subtree. Keeping the left sum
// rather than the whole subtree's lets Select read one element per level.
type elem struct {
	left, right, parent int32
	weight, lsum        int32
}

// Index is a weighted sequence with O(log n) positional updates and
// prefix-sum selection. The zero value is an empty index. Element handles
// are issued in insertion order, from 0.
type Index struct {
	elems []elem
	root  int32 // meaningless while elems is empty
	total int32
}

// Reset empties the index, keeping its storage.
func (x *Index) Reset() {
	x.elems = x.elems[:0]
	x.root = none
	x.total = 0
}

// Total reports the summed weight of every element.
func (x *Index) Total() int { return int(x.total) }

// empty reports whether no element is linked into the treap.
func (x *Index) empty() bool { return len(x.elems) == 0 || x.root == none }

// Weight reports element e's own weight.
func (x *Index) Weight(e int32) int32 { return x.elems[e].weight }

// Push appends an element of weight w at the end of the sequence and
// returns its handle.
func (x *Index) Push(w int32) int32 {
	if x.empty() {
		x.root = int32(len(x.elems))
		x.elems = append(x.elems, elem{left: none, right: none, parent: none, weight: w})
		x.total += w
		return x.root
	}
	at := x.root
	for x.elems[at].right != none {
		at = x.elems[at].right
	}
	return x.attach(at, false, w)
}

// InsertBefore inserts an element of weight w immediately before element
// b and returns its handle.
func (x *Index) InsertBefore(b int32, w int32) int32 {
	// b's predecessor slot is its left child when that is free, else the
	// right end of its left subtree.
	if x.elems[b].left == none {
		return x.attach(b, true, w)
	}
	at := x.elems[b].left
	for x.elems[at].right != none {
		at = x.elems[at].right
	}
	return x.attach(at, false, w)
}

// attach hangs a new leaf of weight w under at (as its left child when
// left is set), adds w to every left sum above it, and rotates it up until
// its priority is below its parent's.
func (x *Index) attach(at int32, left bool, w int32) int32 {
	n := int32(len(x.elems))
	x.elems = append(x.elems, elem{left: none, right: none, parent: at, weight: w})
	if left {
		x.elems[at].left = n
	} else {
		x.elems[at].right = n
	}
	x.addAbove(n, w)
	pn := priority(n)
	for p := x.elems[n].parent; p != none && pn > priority(p); p = x.elems[n].parent {
		x.rotateUp(n)
	}
	return n
}

// rotateUp rotates n above its parent p, keeping the in-order sequence and
// every left sum.
func (x *Index) rotateUp(n int32) {
	es := x.elems
	p := es[n].parent
	g := es[p].parent
	if es[p].left == n {
		// p's left subtree shrinks to n's right one.
		c := es[n].right
		es[p].left = c
		if c != none {
			es[c].parent = p
		}
		es[n].right = p
		es[p].lsum -= es[n].lsum + es[n].weight
	} else {
		// n's left subtree grows by p and p's left one.
		c := es[n].left
		es[p].right = c
		if c != none {
			es[c].parent = p
		}
		es[n].left = p
		es[n].lsum += es[p].lsum + es[p].weight
	}
	es[p].parent = n
	es[n].parent = g
	switch {
	case g == none:
		x.root = n
	case es[g].left == p:
		es[g].left = n
	default:
		es[g].right = n
	}
}

// Add changes element e's weight by d. The weight must stay non-negative.
func (x *Index) Add(e int32, d int32) {
	x.elems[e].weight += d
	x.addAbove(e, d)
}

// addAbove adds d to the total and to the left sum of every ancestor that
// has e in its left subtree.
func (x *Index) addAbove(e int32, d int32) {
	if d == 0 {
		return
	}
	x.total += d
	es := x.elems
	for a := es[e].parent; a != none; e, a = a, es[a].parent {
		if es[a].left == e {
			es[a].lsum += d
		}
	}
}

// Remove takes element e, which must weigh zero, out of the sequence. Its
// handle stays valid for Weight, which reports 0; inserting before it or
// changing its weight is no longer allowed. Callers remove elements that
// can never hold a slot again, which keeps the treap as small as the part
// of the sequence that still can.
func (x *Index) Remove(e int32) {
	es := x.elems
	for es[e].left != none && es[e].right != none {
		if l, r := es[e].left, es[e].right; priority(l) > priority(r) {
			x.rotateUp(l)
		} else {
			x.rotateUp(r)
		}
	}
	c := es[e].left
	if c == none {
		c = es[e].right
	}
	p := es[e].parent
	if c != none {
		es[c].parent = p
	}
	switch {
	case p == none:
		x.root = c
	case es[p].left == e:
		es[p].left = c
	default:
		es[p].right = c
	}
	es[e] = elem{left: none, right: none, parent: none}
}

// Select returns the element holding slot s: the one whose weight covers
// position s of the sequence laid out as its elements' weights end to end.
// Zero-weight elements hold no slot and are never selected. It fails when
// s is outside [0, Total()).
func (x *Index) Select(s int) (int32, error) {
	if s < 0 || s >= x.Total() {
		return none, fmt.Errorf("slotindex: slot %d outside [0, %d)", s, x.Total())
	}
	es := x.elems
	r := int32(s)
	e := x.root
	for {
		n := &es[e]
		if r < n.lsum {
			e = n.left
			continue
		}
		r -= n.lsum
		if r < n.weight {
			return e, nil
		}
		r -= n.weight
		e = n.right
	}
}

// priority is the treap heap key of handle e: murmur3's 32-bit finalizer,
// a bijection that spreads consecutive handles like independent draws.
func priority(e int32) uint32 {
	h := uint32(e)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
