package power

import (
	"math"
	"math/rand"
	"testing"
)

// expSpecials are the edge inputs every ExpInto check mixes in: signed
// zeros and infinities, NaN, the overflow threshold, both ends of the
// kernel's range, the denormal range below it, and -17, on which Go's
// two amd64 math.Exp sequences round differently.
var expSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	709, math.Nextafter(709, 710), 709.78, 709.782712893384, 709.79, 710,
	-708, math.Nextafter(-708, -709), -708.5, -709, -720, -740, -745, -745.2, -746,
	1, -1, 1e-300, -1e-300, -17,
}

// expInputs draws n inputs: leakage exponents, the full ±760 range,
// raw bit patterns and the specials.
func expInputs(r *rand.Rand, n int) []float64 {
	src := make([]float64, n)
	for i := range src {
		switch r.Intn(4) {
		case 0:
			src[i] = -5000 / (250 + 150*r.Float64())
		case 1:
			src[i] = 1520*r.Float64() - 760
		case 2:
			src[i] = math.Float64frombits(r.Uint64())
		default:
			src[i] = expSpecials[r.Intn(len(expSpecials))]
		}
	}
	return src
}

// checkExpInto requires ExpInto to equal math.Exp bit for bit, into a
// separate slice and in place.
func checkExpInto(t *testing.T, src []float64) {
	t.Helper()
	dst := make([]float64, len(src)+1)
	dst[len(src)] = 42
	ExpInto(dst, src)
	inPlace := append([]float64(nil), src...)
	ExpInto(inPlace, inPlace)
	for i, x := range src {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("ExpInto(%v)[%d]: exp(%v) = %#x, math.Exp %#x", src, i, x, got, want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("in-place ExpInto(%v)[%d]: exp(%v) = %#x, math.Exp %#x", src, i, x, got, want)
		}
	}
	if dst[len(src)] != 42 {
		t.Fatalf("ExpInto wrote past len(src) = %d", len(src))
	}
	checkKernels(t, src)
}

func TestExpIntoSpecials(t *testing.T) {
	for _, x := range expSpecials {
		for n := 1; n <= 17; n++ {
			for at := 0; at < n; at++ {
				src := make([]float64, n)
				for i := range src {
					src[i] = -float64(i) / 3
				}
				src[at] = x
				checkExpInto(t, src)
			}
		}
	}
	for x := -708.0; x >= -746; x-- {
		checkExpInto(t, []float64{x, x + 0.5, x - 0.25, x, x, x, x, x, x})
	}
}

// FuzzExpInto checks ExpInto against math.Exp bit for bit at lengths
// 0–17 (empty, partial blocks, full blocks and tails), and the packed
// kernel, where it runs, against its Go replica.
func FuzzExpInto(f *testing.F) {
	for seed := int64(0); seed < 36; seed++ {
		f.Add(seed, uint8(seed%18))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		checkExpInto(t, expInputs(r, int(n)%18))
	})
}

func TestExpIntoLeakageRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]float64, 64)
	for iter := 0; iter < 2000; iter++ {
		for i := range src {
			src[i] = -(2000 + 6000*r.Float64()) / (250 + 150*r.Float64())
		}
		checkExpInto(t, src)
	}
}
