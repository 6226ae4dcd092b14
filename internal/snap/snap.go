// Package snap is the compact binary encoding behind the checkpoint/restore
// hooks (DESIGN.md S30): an append-only Encoder and a sticky-error Decoder
// over varints, used by sim.World.Snapshot and the per-algorithm
// SnapshotState/RestoreState implementations.
//
// The format is deliberately dumb — unsigned varints, zigzag for signed
// values, length-prefixed slices, no field names, no
// versioning beyond the caller's own tags — because a snapshot is only ever
// read back by the same binary that wrote it (the job store pairs every
// snapshot with the content-addressed plan that produced it). What matters
// is that encoding is total and decoding is byte-exact: restoring a snapshot
// and re-snapshotting must reproduce the original bytes, the invariant the
// round-trip property tests assert for every algorithm.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder accumulates an append-only snapshot buffer. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer. The slice aliases the encoder's
// internal storage; further writes may invalidate it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint64 appends v as an unsigned varint.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int64 appends v zigzag-encoded.
func (e *Encoder) Int64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends v zigzag-encoded.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Int32 appends v zigzag-encoded.
func (e *Encoder) Int32(v int32) { e.Int64(int64(v)) }

// Bool appends b as one varint (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.Uint64(1)
	} else {
		e.Uint64(0)
	}
}

// Ints appends a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// Int32s appends a length-prefixed []int32.
func (e *Encoder) Int32s(v []int32) {
	e.Int(len(v))
	for _, x := range v {
		e.Int32(x)
	}
}

// Int64s appends a length-prefixed []int64.
func (e *Encoder) Int64s(v []int64) {
	e.Int(len(v))
	for _, x := range v {
		e.Int64(x)
	}
}

// Bools appends a length-prefixed []bool.
func (e *Encoder) Bools(v []bool) {
	e.Int(len(v))
	for _, x := range v {
		e.Bool(x)
	}
}

// ErrCorrupt is the sticky decoder error for a truncated or malformed
// buffer; Decoder.Err wraps it with positional context.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// Decoder reads values back in the order they were encoded. Errors are
// sticky: after the first malformed read every subsequent read returns the
// zero value, and Err reports what went wrong — callers check once at the
// end instead of after every field.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads from buf, which the decoder aliases but never mutates.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, or nil. A fully consumed, well-formed
// buffer has a nil Err.
func (d *Decoder) Err() error { return d.err }

// Rest reports how many bytes remain unread.
func (d *Decoder) Rest() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w (offset %d of %d)", ErrCorrupt, d.off, len(d.buf))
	}
}

// Uint64 reads an unsigned varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Int64 reads a zigzag-encoded value.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag-encoded value as int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Int32 reads a zigzag-encoded value as int32.
func (d *Decoder) Int32() int32 { return int32(d.Int64()) }

// Bool reads one varint as a boolean.
func (d *Decoder) Bool() bool { return d.Uint64() != 0 }

// sliceLen validates a decoded length prefix: non-negative and small enough
// that the remaining buffer could plausibly hold it (every element costs at
// least one byte), which keeps a corrupt prefix from allocating gigabytes.
func (d *Decoder) sliceLen() int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.Rest() {
		d.fail()
		return 0
	}
	return n
}

// Ints reads a length-prefixed []int (nil for length 0).
func (d *Decoder) Ints() []int {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.Int()
	}
	return v
}

// Int32s reads a length-prefixed []int32 (nil for length 0).
func (d *Decoder) Int32s() []int32 {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = d.Int32()
	}
	return v
}

// Int64s reads a length-prefixed []int64 (nil for length 0).
func (d *Decoder) Int64s() []int64 {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.Int64()
	}
	return v
}

// Bools reads a length-prefixed []bool (nil for length 0).
func (d *Decoder) Bools() []bool {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = d.Bool()
	}
	return v
}
