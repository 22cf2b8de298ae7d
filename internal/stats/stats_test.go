package stats

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/snapbin"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"fractions", []float64{0.5, 1.5, 2.5, 3.5}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.in)
			if err != nil {
				t.Fatalf("Mean(%v) error: %v", tt.in, err)
			}
			if !ApproxEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) error = %v, want ErrEmpty", err)
	}
}

func TestMedianOddEven(t *testing.T) {
	odd := []float64{9, 1, 5}
	if m, _ := Median(odd); m != 5 {
		t.Errorf("Median(odd) = %v, want 5", m)
	}
	even := []float64{1, 2, 3, 10}
	if m, _ := Median(even); m != 2.5 {
		t.Errorf("Median(even) = %v, want 2.5", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Median(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	in := []float64{4, 1, 3, 2}
	if q, _ := Quantile(in, 0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q, _ := Quantile(in, 1); q != 4 {
		t.Errorf("q1 = %v, want 4", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	in := []float64{0, 10}
	got, err := Quantile(in, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(got, 2.5, 1e-12) {
		t.Errorf("Quantile(0.25) = %v, want 2.5", got)
	}
}

func TestQuantileRange(t *testing.T) {
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("expected error for q < 0")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("expected error for q > 1")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("expected error for NaN q")
	}
}

func TestMinMax(t *testing.T) {
	in := []float64{3, -2, 7, 0}
	if m, _ := Min(in); m != -2 {
		t.Errorf("Min = %v, want -2", m)
	}
	if m, _ := Max(in); m != 7 {
		t.Errorf("Max = %v, want 7", m)
	}
}

func TestVarianceStdDev(t *testing.T) {
	in := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	s, _ := StdDev(in)
	if !ApproxEqual(s, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 3.25, 9, 0, -7.5}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	m, _ := Mean(xs)
	if !ApproxEqual(r.Mean(), m, 1e-12) {
		t.Errorf("running mean %v != batch %v", r.Mean(), m)
	}
	v, _ := Variance(xs)
	if !ApproxEqual(r.Variance(), v, 1e-9) {
		t.Errorf("running variance %v != batch %v", r.Variance(), v)
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if r.Min() != mn || r.Max() != mx {
		t.Errorf("running min/max = %v/%v, want %v/%v", r.Min(), r.Max(), mn, mx)
	}
	if r.Count() != len(xs) {
		t.Errorf("count = %d, want %d", r.Count(), len(xs))
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(5)
	r.Reset()
	if r.Count() != 0 || r.Mean() != 0 {
		t.Errorf("after reset: count=%d mean=%v", r.Count(), r.Mean())
	}
}

func TestRunningPropertyMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip inputs where float64 arithmetic overflows
			}
			r.Add(x)
		}
		if r.Count() > 0 {
			ok = r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, x := range []float64{1, 2, 3, 4} {
		w.Push(x)
	}
	if !w.Full() {
		t.Error("window should be full")
	}
	m, err := w.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(m, 3, 1e-12) { // holds {4,2,3} -> mean 3
		t.Errorf("window mean = %v, want 3", m)
	}
}

func TestWindowMaxAndReset(t *testing.T) {
	w := NewWindow(2)
	w.Push(5)
	w.Push(1)
	if m, _ := w.Max(); m != 5 {
		t.Errorf("window max = %v, want 5", m)
	}
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("len after reset = %d", w.Len())
	}
	if _, err := w.Mean(); err != ErrEmpty {
		t.Errorf("mean of empty window err = %v, want ErrEmpty", err)
	}
}

func TestWindowPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity 0")
		}
	}()
	NewWindow(0)
}

// TestWindowLoadStateValidatesRing feeds LoadState hand-built blobs: a
// ring head outside the buffer, or a turned ring in a window that never
// filled, must be rejected rather than panic in a later Push, and every
// state Push can reach must load and then evolve like the original.
func TestWindowLoadStateValidatesRing(t *testing.T) {
	const capacity = 4
	blob := func(head int, full bool, n uint64, samples ...float64) []byte {
		var sw snapbin.Writer
		sw.PutInt(head)
		sw.PutBool(full)
		sw.PutU64(n)
		for _, x := range samples {
			sw.PutF64(x)
		}
		return sw.Bytes()
	}
	tests := []struct {
		name   string
		blob   []byte
		wantOK bool
	}{
		{"empty", blob(0, false, 0), true},
		{"filling", blob(0, false, 2, 1, 2), true},
		{"just filled", blob(0, false, 4, 1, 2, 3, 4), true},
		{"wrapped", blob(3, true, 4, 5, 6, 7, 4), true},
		{"head past capacity", blob(7, true, 4, 1, 2, 3, 4), false},
		{"head at capacity", blob(capacity, true, 4, 1, 2, 3, 4), false},
		{"negative head", blob(-1, true, 4, 1, 2, 3, 4), false},
		{"head while filling", blob(1, false, 2, 1, 2), false},
		{"full while filling", blob(0, true, 3, 1, 2, 3), false},
		{"too many samples", blob(0, false, 5, 1, 2, 3, 4, 5), false},
		{"length overflows int", blob(0, false, 1<<63), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := NewWindow(capacity)
			err := w.LoadState(snapbin.NewReader(tt.blob))
			if (err == nil) != tt.wantOK {
				t.Fatalf("LoadState err = %v, want ok=%t", err, tt.wantOK)
			}
			if !tt.wantOK {
				return
			}
			// Round trip: the loaded window saves the same bytes and
			// keeps evolving like one that never left memory.
			var sw snapbin.Writer
			w.SaveState(&sw)
			if !bytes.Equal(sw.Bytes(), tt.blob) {
				t.Errorf("saved %x, loaded %x", sw.Bytes(), tt.blob)
			}
			for x := 10.0; x < 16; x++ {
				w.Push(x)
			}
			if !w.Full() || w.Len() != capacity {
				t.Errorf("after 6 pushes: full=%t len=%d", w.Full(), w.Len())
			}
			if m, _ := w.Max(); m != 15 {
				t.Errorf("max after pushes = %v, want 15", m)
			}
		})
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestSumEmpty(t *testing.T) {
	if s := Sum(nil); s != 0 {
		t.Errorf("Sum(nil) = %v, want 0", s)
	}
}
