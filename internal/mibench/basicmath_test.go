package mibench

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSolveCubicThreeRealRoots(t *testing.T) {
	// (x-1)(x-2)(x-3) = x³ - 6x² + 11x - 6.
	roots, err := SolveCubic(1, -6, 11, -6)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 3 {
		t.Fatalf("got %d roots, want 3", len(roots))
	}
	sort.Float64s(roots)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(roots[i]-want[i]) > 1e-9 {
			t.Errorf("root %d = %v, want %v", i, roots[i], want[i])
		}
	}
}

func TestSolveCubicSingleRealRoot(t *testing.T) {
	// x³ + x + 1 has one real root ≈ -0.6823278.
	roots, err := SolveCubic(1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	if math.Abs(roots[0]+0.6823278038280193) > 1e-9 {
		t.Errorf("root = %v", roots[0])
	}
}

func TestSolveCubicTripleRoot(t *testing.T) {
	// (x-2)³ = x³ - 6x² + 12x - 8.
	roots, err := SolveCubic(1, -6, 12, -8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if math.Abs(r-2) > 1e-6 {
			t.Errorf("triple root = %v, want 2", r)
		}
	}
}

func TestSolveCubicValidation(t *testing.T) {
	if _, err := SolveCubic(0, 1, 1, 1); err == nil {
		t.Error("expected error for zero leading coefficient")
	}
	if _, err := SolveCubic(1, math.NaN(), 0, 0); err == nil {
		t.Error("expected error for NaN coefficient")
	}
}

// Property: every returned root satisfies the cubic to high accuracy.
func TestSolveCubicRootsSatisfyEquation(t *testing.T) {
	f := func(bi, ci, di int8) bool {
		b, c, d := float64(bi)/4, float64(ci)/4, float64(di)/4
		roots, err := SolveCubic(1, b, c, d)
		if err != nil {
			return false
		}
		for _, x := range roots {
			residual := x*x*x + b*x*x + c*x + d
			// Scale tolerance with root magnitude.
			tol := 1e-6 * (1 + math.Abs(x*x*x))
			if math.Abs(residual) > tol {
				return false
			}
		}
		return len(roots) == 1 || len(roots) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestISqrtExact(t *testing.T) {
	cases := map[uint64]uint64{
		0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3,
		15: 3, 16: 4, 99: 9, 100: 10, 1 << 32: 1 << 16,
		18446744073709551615: 4294967295,
	}
	for n, want := range cases {
		if got := ISqrt(n); got != want {
			t.Errorf("ISqrt(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: ISqrt(n)² ≤ n < (ISqrt(n)+1)².
func TestISqrtDefinition(t *testing.T) {
	f := func(n uint64) bool {
		s := ISqrt(n)
		if s*s > n {
			return false
		}
		// Guard overflow of (s+1)².
		if s+1 <= 4294967295 && (s+1)*(s+1) <= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestAngleConversionRoundTrip(t *testing.T) {
	for d := -720.0; d <= 720; d += 45 {
		if got := Rad2Deg(Deg2Rad(d)); math.Abs(got-d) > 1e-9 {
			t.Errorf("round trip %v -> %v", d, got)
		}
	}
	if math.Abs(Deg2Rad(180)-math.Pi) > 1e-12 {
		t.Errorf("Deg2Rad(180) = %v", Deg2Rad(180))
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	var w1, w2 Workload
	w1.RunIterations(50)
	w2.RunIterations(50)
	if w1.Checksum() != w2.Checksum() {
		t.Errorf("checksums differ: %v vs %v", w1.Checksum(), w2.Checksum())
	}
	if w1.Iterations() != 50 {
		t.Errorf("iterations = %d", w1.Iterations())
	}
	if w1.rootCount == 0 {
		t.Error("expected some cubic roots")
	}
}

func TestWorkloadIncrementalMatchesBatch(t *testing.T) {
	var batch, inc Workload
	batch.RunIterations(30)
	for i := 0; i < 30; i++ {
		inc.RunIterations(1)
	}
	if batch.Checksum() != inc.Checksum() {
		t.Errorf("incremental checksum %v != batch %v", inc.Checksum(), batch.Checksum())
	}
}

func TestWorkloadCycleCost(t *testing.T) {
	var w Workload
	got := w.RunIterations(7)
	if got != 7*CyclesPerIteration {
		t.Errorf("cycles = %d, want %d", got, 7*CyclesPerIteration)
	}
	if CyclesPerIteration <= 0 {
		t.Error("cycle cost must be positive")
	}
}

func BenchmarkSolveCubic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = SolveCubic(1, -6, 11, -6)
	}
}

func BenchmarkISqrt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ISqrt(uint64(i)*2654435761 + 12345)
	}
}

func BenchmarkWorkloadIteration(b *testing.B) {
	var w Workload
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunIterations(1)
	}
}
