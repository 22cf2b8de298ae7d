package snapbin

import (
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.PutTag(0xfeed)
	w.PutU64(42)
	w.PutI64(-7)
	w.PutInt(123456)
	w.PutF64(3.14159)
	w.PutF64(math.Inf(1))
	w.PutF64(math.Inf(-1))
	w.PutF64(math.NaN())
	w.PutBool(true)
	w.PutBool(false)
	w.PutF64s([]float64{1.5, -2.5, 0})
	w.PutF64s(nil)

	r := NewReader(w.Bytes())
	r.Tag(0xfeed)
	if got := r.U64(); got != 42 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, 1) {
		t.Fatalf("F64 = %v, want +Inf", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 = %v, want -Inf", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Fatalf("F64 = %v, want NaN", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip broken")
	}
	dst := make([]float64, 3)
	r.F64sInto(dst)
	if dst[0] != 1.5 || dst[1] != -2.5 || dst[2] != 0 {
		t.Fatalf("F64sInto = %v", dst)
	}
	if got := r.F64s(nil); len(got) != 0 {
		t.Fatalf("empty F64s = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d bytes", r.Remaining())
	}
}

func TestNaNBitsPreserved(t *testing.T) {
	// A NaN with a nonstandard payload must round trip bit-exactly:
	// snapshots promise bitwise state fidelity, not value equality.
	payload := math.Float64frombits(0x7ff8dead_beef0001)
	var w Writer
	w.PutF64(payload)
	r := NewReader(w.Bytes())
	if got := math.Float64bits(r.F64()); got != 0x7ff8dead_beef0001 {
		t.Fatalf("NaN payload drifted: %#x", got)
	}
}

func TestTruncationAndStickyError(t *testing.T) {
	var w Writer
	w.PutU64(1)
	blob := w.Bytes()

	r := NewReader(blob[:4])
	if got := r.U64(); got != 0 {
		t.Fatalf("truncated U64 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("want truncation error")
	}
	// Sticky: later reads keep the first error and return zeros.
	first := r.Err()
	if got := r.F64(); got != 0 {
		t.Fatalf("poisoned F64 = %v", got)
	}
	if r.Err() != first {
		t.Fatalf("error not sticky: %v", r.Err())
	}
}

func TestTagMismatch(t *testing.T) {
	var w Writer
	w.PutTag(0xaaaa)
	r := NewReader(w.Bytes())
	r.Tag(0xbbbb)
	if r.Err() == nil {
		t.Fatal("want tag mismatch error")
	}
}

func TestLengthMismatch(t *testing.T) {
	var w Writer
	w.PutF64s([]float64{1, 2, 3})
	r := NewReader(w.Bytes())
	dst := make([]float64, 2)
	r.F64sInto(dst)
	if r.Err() == nil {
		t.Fatal("want length mismatch error")
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A corrupt length prefix must fail fast, not attempt a huge alloc.
	var w Writer
	w.PutU64(1 << 60)
	r := NewReader(w.Bytes())
	if got := r.F64s(nil); got != nil || r.Err() == nil {
		t.Fatalf("hostile length accepted: %v, err=%v", got, r.Err())
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.PutU64(7)
	w.Reset()
	if len(w.buf) != 0 {
		t.Fatalf("len after reset = %d", len(w.buf))
	}
	w.PutU64(9)
	r := NewReader(w.Bytes())
	if got := r.U64(); got != 9 {
		t.Fatalf("after reset = %d", got)
	}
}

// TestDrawLimit pins SetDrawLimit/Draws: without a limit any count
// reads back; with one, a count above it poisons the reader.
func TestDrawLimit(t *testing.T) {
	var w Writer
	w.PutU64(100)
	w.PutU64(101)
	w.PutU64(7)
	r := NewReader(w.Bytes())
	if got := r.Draws(); got != 100 || r.Err() != nil {
		t.Fatalf("unbounded Draws = %d, %v", got, r.Err())
	}
	r.SetDrawLimit(100)
	if got := r.Draws(); got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "draw count 101 exceeds the bound 100") {
		t.Fatalf("Draws over the limit = %d, %v", got, r.Err())
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("read after a rejected draw count: %d, want the sticky error's 0", got)
	}
}
