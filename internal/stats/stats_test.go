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
			if !approxEqual(got, tt.want, 1e-12) {
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
	if !approxEqual(got, 2.5, 1e-12) {
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

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 3.25, 9, 0, -7.5}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	m, _ := Mean(xs)
	if !approxEqual(r.Mean(), m, 1e-12) {
		t.Errorf("running mean %v != batch %v", r.Mean(), m)
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if r.min != mn || r.Max() != mx {
		t.Errorf("running min/max = %v/%v, want %v/%v", r.min, r.Max(), mn, mx)
	}
	if r.Count() != len(xs) {
		t.Errorf("count = %d, want %d", r.Count(), len(xs))
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
			ok = r.Mean() >= r.min-1e-9 && r.Mean() <= r.Max()+1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRunningStateRoundTrip saves a running aggregate, loads it into
// another, and requires the same bits back and the same aggregate
// after further samples. A cut-short blob and a negative sample count
// must fail and leave the target as it was.
func TestRunningStateRoundTrip(t *testing.T) {
	save := func(r *Running) []byte {
		var w snapbin.Writer
		r.SaveState(&w)
		return bytes.Clone(w.Bytes())
	}
	var src Running
	for _, x := range []float64{0.1, -3.5, 2.25, math.Copysign(0, -1), 7} {
		src.Add(x)
	}
	blob := save(&src)
	var dst Running
	if err := dst.LoadState(snapbin.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if dst != src || !bytes.Equal(save(&dst), blob) {
		t.Fatalf("loaded %+v, saved %+v", dst, src)
	}
	src.Add(1.5)
	dst.Add(1.5)
	if dst != src {
		t.Errorf("after one more sample: loaded %+v, saved %+v", dst, src)
	}

	before := dst
	for cut := 0; cut < len(blob); cut += 8 {
		if err := dst.LoadState(snapbin.NewReader(blob[:cut])); err == nil {
			t.Errorf("blob cut to %d of %d bytes loaded", cut, len(blob))
		}
	}
	var w snapbin.Writer
	w.PutInt(-1)
	for _, v := range []float64{src.mean, src.m2, src.min, src.max} {
		w.PutF64(v)
	}
	if err := dst.LoadState(snapbin.NewReader(w.Bytes())); err == nil {
		t.Error("negative sample count loaded")
	}
	if dst != before {
		t.Errorf("failed loads changed the aggregate: %+v, want %+v", dst, before)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, x := range []float64{1, 2, 3, 4} {
		w.Push(x)
	}
	if !w.full {
		t.Error("window should be full")
	}
	m, err := w.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(m, 3, 1e-12) { // holds {4,2,3} -> mean 3
		t.Errorf("window mean = %v, want 3", m)
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(2)
	w.Push(5)
	w.Push(1)
	w.Reset()
	if w.n != 0 {
		t.Errorf("len after reset = %d", w.n)
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
			if !w.full || w.n != capacity {
				t.Errorf("after 6 pushes: full=%t len=%d", w.full, w.n)
			}
			if m, _ := w.Mean(); m != 13.5 {
				t.Errorf("mean after pushes = %v, want 13.5", m)
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

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
