package snap

import (
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip encodes one of every supported shape and decodes it back in
// order: values must survive exactly and the buffer must be fully consumed.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint64(0)
	e.Uint64(math.MaxUint64)
	e.Int64(math.MinInt64)
	e.Int64(math.MaxInt64)
	e.Int(-42)
	e.Int32(-7)
	e.Bool(true)
	e.Bool(false)
	e.Ints([]int{3, -1, 0})
	e.Int32s([]int32{9, -9})
	e.Int64s([]int64{1 << 40, -(1 << 40)})
	e.Bools([]bool{true, false, true})
	e.Ints(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Uint64(); got != 0 {
		t.Errorf("Uint64 = %d, want 0", got)
	}
	if got := d.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64 = %d, want max", got)
	}
	if got := d.Int64(); got != math.MinInt64 {
		t.Errorf("Int64 = %d, want min", got)
	}
	if got := d.Int64(); got != math.MaxInt64 {
		t.Errorf("Int64 = %d, want max", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d, want -42", got)
	}
	if got := d.Int32(); got != -7 {
		t.Errorf("Int32 = %d, want -7", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.Ints(); !reflect.DeepEqual(got, []int{3, -1, 0}) {
		t.Errorf("Ints = %v", got)
	}
	if got := d.Int32s(); !reflect.DeepEqual(got, []int32{9, -9}) {
		t.Errorf("Int32s = %v", got)
	}
	if got := d.Int64s(); !reflect.DeepEqual(got, []int64{1 << 40, -(1 << 40)}) {
		t.Errorf("Int64s = %v", got)
	}
	if got := d.Bools(); !reflect.DeepEqual(got, []bool{true, false, true}) {
		t.Errorf("Bools = %v", got)
	}
	if got := d.Ints(); got != nil {
		t.Errorf("empty Ints = %v, want nil", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Rest() != 0 {
		t.Errorf("%d bytes left over", d.Rest())
	}
}

// TestStickyError truncates a buffer mid-value: the first bad read must set
// the error, every later read must return zero without panicking.
func TestStickyError(t *testing.T) {
	var e Encoder
	e.Uint64(1)
	e.Int64(1 << 40)
	buf := e.Bytes()
	d := NewDecoder(buf[:len(buf)-4])
	if d.Uint64() != 1 {
		t.Fatal("first value should decode")
	}
	if d.Int64() != 0 {
		t.Error("truncated Int64 should be 0")
	}
	if d.Err() == nil {
		t.Fatal("expected error after truncated read")
	}
	if d.Uint64() != 0 || d.Int() != 0 || d.Ints() != nil {
		t.Error("reads after error should return zero values")
	}
}

// TestCorruptLength guards the slice-length sanity check: a huge decoded
// length must fail instead of allocating.
func TestCorruptLength(t *testing.T) {
	var e Encoder
	e.Int(1 << 40) // claims a petabyte of elements
	d := NewDecoder(e.Bytes())
	if got := d.Ints(); got != nil {
		t.Errorf("Ints = %v, want nil", got)
	}
	if d.Err() == nil {
		t.Fatal("expected corrupt-length error")
	}
}
