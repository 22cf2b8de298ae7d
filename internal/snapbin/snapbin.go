// Package snapbin is the minimal little-endian binary codec behind
// engine snapshots: an append-only Writer and a truncation-checked
// Reader over a flat byte blob. It exists so every simulator package
// can serialize its own state with the same primitives — fixed-width
// integers, IEEE-754 float bits (bit-exact round trips, including NaN
// payloads and ±Inf), and length-prefixed slices — without pulling in
// encoding/gob's type machinery or reflection.
//
// The format has no self-description: reader and writer must agree on
// the field sequence, which the sim layer pins with a magic/version
// header and per-section tags. That is exactly the bitwise-determinism
// contract the snapshot feature needs — a blob restored into an engine
// built from the same spec reproduces the same bytes, and any drift in
// the field sequence fails loudly via tag mismatch or truncation.
package snapbin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends fixed-width values to a growable byte buffer. The
// zero value is ready to use; Reset keeps the capacity so sweep loops
// can snapshot every checkpoint without reallocating.
type Writer struct {
	buf []byte
}

// Reset truncates the buffer, keeping capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated blob. The slice aliases the writer's
// buffer: copy it before the next Reset if it must outlive the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// PutU64 appends a little-endian uint64.
func (w *Writer) PutU64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// PutI64 appends an int64 (two's-complement bits).
func (w *Writer) PutI64(v int64) { w.PutU64(uint64(v)) }

// PutInt appends an int as an int64.
func (w *Writer) PutInt(v int) { w.PutI64(int64(v)) }

// PutF64 appends a float64 as its exact IEEE-754 bit pattern.
func (w *Writer) PutF64(v float64) { w.PutU64(math.Float64bits(v)) }

// PutBool appends a bool as one 0/1 byte.
func (w *Writer) PutBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// grow extends the buffer by n bytes in one step and returns the new
// region, so bulk putters pay one growth check per slice instead of
// one per element — slice serialization is the checkpoint hot path.
func (w *Writer) grow(n int) []byte {
	off := len(w.buf)
	if cap(w.buf)-off < n {
		w.buf = append(w.buf, make([]byte, n)...)
	} else {
		w.buf = w.buf[:off+n]
	}
	return w.buf[off:]
}

// PutF64s appends a length-prefixed float64 slice.
func (w *Writer) PutF64s(vs []float64) {
	w.PutU64(uint64(len(vs)))
	dst := w.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// PutF64Run appends n copies of v's bits, unprefixed: the bytes n PutF64
// calls would write, for run-length storage that serializes expanded.
func (w *Writer) PutF64Run(v float64, n int) {
	dst := w.grow(8 * n)
	bits := math.Float64bits(v)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], bits)
	}
}

// PutTag appends a section marker the reader must match with Tag —
// cheap misalignment insurance between serialized components.
func (w *Writer) PutTag(tag uint64) { w.PutU64(tag) }

// Reader consumes a blob written by Writer. Errors are sticky: the
// first truncation or tag mismatch poisons every later read (which
// then return zero values), so callers check Err once at the end —
// or sooner, before acting on variable-length data.
type Reader struct {
	buf []byte
	off int
	err error
	// drawLimit bounds the RNG draw counts Draws accepts (0: none).
	drawLimit uint64
}

// NewReader wraps a blob.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, nil if none.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapbin: "+format, args...)
	}
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated blob at offset %d (want 8 bytes, have %d)", r.off, len(r.buf)-r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// SetDrawLimit bounds every RNG draw count read with Draws from here
// on; 0 removes the bound. A restoring engine sets it from its step
// count, because restoring a counted RNG replays every draw.
func (r *Reader) SetDrawLimit(n uint64) { r.drawLimit = n }

// Draws reads an RNG draw count (a uint64). A count above the limit set
// with SetDrawLimit poisons the reader and reads as 0.
func (r *Reader) Draws() uint64 {
	n := r.U64()
	if r.drawLimit > 0 && n > r.drawLimit {
		r.fail("draw count %d exceeds the bound %d at offset %d", n, r.drawLimit, r.off-8)
		return 0
	}
	return n
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its exact bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated blob at offset %d (want 1 byte)", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("invalid bool byte %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

// F64sInto reads a length-prefixed float64 slice whose stored length
// must equal len(dst) — the fixed-size restore path that never
// reallocates (thermal temps, dvfs residency, stats windows).
func (r *Reader) F64sInto(dst []float64) {
	n := r.U64()
	if r.err != nil {
		return
	}
	if n != uint64(len(dst)) {
		r.fail("slice length %d does not match destination %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.F64()
	}
}

// F64s reads a length-prefixed float64 slice, appending into dst[:0]
// so capacity is reused across restores. A nil result means an empty
// slice (or a poisoned reader).
func (r *Reader) F64s(dst []float64) []float64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()/8) {
		r.fail("slice length %d exceeds remaining blob", n)
		return nil
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		dst = append(dst, r.F64())
	}
	return dst
}

// Tag reads a section marker and fails unless it matches want.
func (r *Reader) Tag(want uint64) {
	got := r.U64()
	if r.err == nil && got != want {
		r.fail("section tag mismatch at offset %d: got %#x, want %#x", r.off-8, got, want)
	}
}
