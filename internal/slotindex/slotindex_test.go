package slotindex

import (
	"math/rand"
	"testing"
)

// selectSlot is the plain-slice reference: walk the weights to the
// position covering slot s.
func selectSlot(weights []int32, s int) int {
	for i, w := range weights {
		if s < int(w) {
			return i
		}
		s -= int(w)
	}
	return -1
}

// TestDifferentialAgainstSliceModel builds indexes of random sizes (zero
// weights included, and sizes that are and are not powers of two), drives
// them and a plain weight slice with the same random changes (down to zero
// and back up), and compares Total and Select at every slot after every
// change.
func TestDifferentialAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var x Index
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(70)
		if trial%10 == 0 {
			n = 1 << (trial / 10)
		}
		weights := make([]int32, n)
		for i := range weights {
			if rng.Intn(3) > 0 {
				weights[i] = int32(rng.Intn(4))
			}
		}
		x.Build(n, func(i int) int32 { return weights[i] })
		for op := 0; op <= 200 && n > 0; op++ {
			if op > 0 {
				i := rng.Intn(n)
				d := int32(rng.Intn(4)) - weights[i] // often to zero
				if rng.Intn(2) == 0 {
					d = -weights[i]
				}
				x.Add(i, d)
				weights[i] += d
			}
			total := 0
			for _, w := range weights {
				total += int(w)
			}
			if x.Total() != total {
				t.Fatalf("trial %d op %d: Total %d, want %d", trial, op, x.Total(), total)
			}
			for s := 0; s < total; s++ {
				got, err := x.Select(s)
				if err != nil {
					t.Fatalf("trial %d op %d: Select(%d): %v", trial, op, s, err)
				}
				if want := selectSlot(weights, s); got != want {
					t.Fatalf("trial %d op %d: Select(%d) = %d, want %d", trial, op, s, got, want)
				}
				if weights[got] == 0 {
					t.Fatalf("trial %d op %d: Select(%d) chose zero-weight position %d", trial, op, s, got)
				}
			}
		}
	}
}

// TestSelectOutOfRangeIsAnError: slots outside [0, Total()) — on an empty
// index, below zero, at Total, and when every weight is zero — return an
// error instead of panicking.
func TestSelectOutOfRangeIsAnError(t *testing.T) {
	var x Index
	if _, err := x.Select(0); err == nil {
		t.Error("Select(0) on an empty index returned no error")
	}
	x.Build(2, func(i int) int32 { return int32(2 * i) })
	for _, s := range []int{-1, 2, 3, 1 << 40} {
		if _, err := x.Select(s); err == nil {
			t.Errorf("Select(%d) with Total 2 returned no error", s)
		}
	}
	x.Add(1, -2)
	if _, err := x.Select(0); err == nil {
		t.Error("Select(0) with every weight zero returned no error")
	}
}

// TestResetReuseAllocatesNothing: once the index has grown to a size,
// building it again at that size or smaller reuses the storage.
func TestResetReuseAllocatesNothing(t *testing.T) {
	var x Index
	build := func() {
		for _, n := range []int{500, 37} {
			x.Build(n, func(i int) int32 { return int32(i % 3) })
			x.Add(n/2, 1)
			if _, err := x.Select(x.Total() / 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	build()
	if got := testing.AllocsPerRun(10, build); got != 0 {
		t.Errorf("rebuild allocated %.0f times, want 0", got)
	}
}
