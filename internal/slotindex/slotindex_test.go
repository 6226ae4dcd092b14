package slotindex

import (
	"math/rand"
	"testing"
)

// model is the plain-slice reference: handles in sequence order, weights by
// handle, and which handles were removed (they keep their place at weight
// zero, which holds no slot either way).
type model struct {
	order   []int32
	weight  []int32
	removed []bool
}

// live picks a random element that is still in the sequence, or -1.
func (m *model) live(rng *rand.Rand) int32 {
	var ids []int32
	for e, r := range m.removed {
		if !r {
			ids = append(ids, int32(e))
		}
	}
	if len(ids) == 0 {
		return none
	}
	return ids[rng.Intn(len(ids))]
}

func (m *model) insertBefore(b, e int32, w int32) {
	at := 0
	for m.order[at] != b {
		at++
	}
	m.order = append(m.order, 0)
	copy(m.order[at+1:], m.order[at:])
	m.order[at] = e
	m.weight = append(m.weight, w)
	m.removed = append(m.removed, false)
}

func (m *model) total() int {
	t := 0
	for _, w := range m.weight {
		t += int(w)
	}
	return t
}

// selectSlot walks the sequence to the element covering slot s.
func (m *model) selectSlot(s int) int32 {
	for _, e := range m.order {
		if s < int(m.weight[e]) {
			return e
		}
		s -= int(m.weight[e])
	}
	return none
}

// TestDifferentialAgainstSliceModel drives the index and the slice model
// with the same random inserts (at the end and before random elements,
// zero weights included), weight changes (down to zero and back up) and
// removals of zero-weight elements, and compares Total, every Weight and
// Select at every slot after every operation.
func TestDifferentialAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var x Index
	for trial := 0; trial < 40; trial++ {
		x.Reset()
		m := &model{}
		for op := 0; op < 300; op++ {
			b := m.live(rng)
			switch r := rng.Intn(12); {
			case b == none || r == 0:
				w := int32(rng.Intn(4))
				e := x.Push(w)
				if e != int32(len(m.weight)) {
					t.Fatalf("Push returned handle %d, want %d", e, len(m.weight))
				}
				m.order = append(m.order, e)
				m.weight = append(m.weight, w)
				m.removed = append(m.removed, false)
			case r < 6:
				w := int32(rng.Intn(4))
				if rng.Intn(3) == 0 {
					w = 0
				}
				e := x.InsertBefore(b, w)
				if e != int32(len(m.weight)) {
					t.Fatalf("InsertBefore returned handle %d, want %d", e, len(m.weight))
				}
				m.insertBefore(b, e, w)
			case r < 10:
				d := int32(rng.Intn(3)) - m.weight[b] // often to zero
				if rng.Intn(2) == 0 {
					d = -m.weight[b]
				}
				x.Add(b, d)
				m.weight[b] += d
			default:
				if m.weight[b] == 0 {
					x.Remove(b)
					m.removed[b] = true
				}
			}
			total := m.total()
			if x.Total() != total {
				t.Fatalf("trial %d op %d: Total %d, want %d", trial, op, x.Total(), total)
			}
			for e := range m.weight {
				if got := x.Weight(int32(e)); got != m.weight[e] {
					t.Fatalf("trial %d op %d: Weight(%d) = %d, want %d", trial, op, e, got, m.weight[e])
				}
			}
			for s := 0; s < total; s++ {
				got, err := x.Select(s)
				if err != nil {
					t.Fatalf("trial %d op %d: Select(%d): %v", trial, op, s, err)
				}
				if want := m.selectSlot(s); got != want {
					t.Fatalf("trial %d op %d: Select(%d) = %d, want %d", trial, op, s, got, want)
				}
				if x.Weight(got) == 0 {
					t.Fatalf("trial %d op %d: Select(%d) chose zero-weight element %d", trial, op, s, got)
				}
			}
		}
	}
}

// TestSelectOutOfRangeIsAnError: slots outside [0, Total()) — on an empty
// index, below zero, at Total, and when every element weighs zero — return
// an error instead of panicking.
func TestSelectOutOfRangeIsAnError(t *testing.T) {
	var x Index
	if _, err := x.Select(0); err == nil {
		t.Error("Select(0) on an empty index returned no error")
	}
	a := x.Push(2)
	x.InsertBefore(a, 0)
	for _, s := range []int{-1, 2, 3, 1 << 40} {
		if _, err := x.Select(s); err == nil {
			t.Errorf("Select(%d) with Total 2 returned no error", s)
		}
	}
	x.Add(a, -2)
	if _, err := x.Select(0); err == nil {
		t.Error("Select(0) with every weight zero returned no error")
	}
}

// TestResetReuseAllocatesNothing: once the index has grown to a size,
// emptying it with Reset and rebuilding a sequence of that size reuses the
// storage.
func TestResetReuseAllocatesNothing(t *testing.T) {
	var x Index
	build := func() {
		x.Reset()
		root := x.Push(3)
		prev := root
		for i := 0; i < 500; i++ {
			x.Add(prev, -1)
			e := x.InsertBefore(prev, 2)
			if i%3 == 0 {
				prev = e
			}
			x.Add(prev, 1)
		}
		if _, err := x.Select(x.Total() / 2); err != nil {
			t.Fatal(err)
		}
	}
	build()
	if got := testing.AllocsPerRun(10, build); got != 0 {
		t.Errorf("rebuild after Reset allocated %.0f times, want 0", got)
	}
}
