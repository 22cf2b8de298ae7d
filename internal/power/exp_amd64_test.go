package power

import (
	"math"
	"testing"
)

// A Go replica of the FMA operation sequence of math.Exp's amd64
// assembly, the one expFMA replays, one float64 rounding per
// instruction, valid for -708 <= x <= 709: it fuses exactly where the
// assembly does, through math.FMA, and rounds every other product
// explicitly so no compiler target can fuse it.

const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor holds the series coefficients from 1/8! up to 1/1!, in
// the order the Horner chain consumes them.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1.0,
}

// expScale returns r*2^k for the rounded exponent k.
func expScale(r, k float64) float64 {
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

func expFMARef(x float64) float64 {
	k := math.RoundToEven(float64(x * expLog2e))
	r := math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r)
	r = float64(r * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, r, c)
	}
	r = float64(r * p)
	for i := 0; i < 3; i++ {
		r = float64(r * float64(r+2))
	}
	return expScale(math.FMA(r, float64(r+2), 1), k)
}

// checkKernels pins expFMA to its replica, lane by lane, on every full
// 8-value block of src, and checks it stops at the first block holding
// an out-of-range value. The kernel runs only where math.Exp runs the
// FMA sequence, so only there is the CPU known to have AVX and FMA.
func checkKernels(t *testing.T, src []float64) {
	t.Helper()
	if !useFMA {
		return
	}
	full := len(src) &^ 7
	stop := full
	for i, x := range src[:full] {
		if !(x >= -708 && x <= 709) {
			stop = i &^ 7
			break
		}
	}
	dst := make([]float64, len(src))
	if got := expFMA(dst, src); got != stop {
		t.Fatalf("expFMA wrote %d of %v, want %d", got, src, stop)
	}
	for i, x := range src[:stop] {
		if want := expFMARef(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("expFMA: exp(%v) = %v (%#x), replica %v (%#x)",
				x, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpProbe pins the kernel choice: the FMA replica must give
// probeFMABits at the probe, math.Exp must give one of the two
// sequences' results there, and useFMA must name the one it gives.
// Under GODEBUG=cpu.fma=off on an FMA host, math.Exp runs the SSE2
// sequence, which pins probeSSE2Bits as that sequence's result.
func TestExpProbe(t *testing.T) {
	if got := math.Float64bits(expFMARef(probe)); got != probeFMABits {
		t.Fatalf("FMA replica at the probe = %#x, probeFMABits = %#x", got, uint64(probeFMABits))
	}
	switch got := math.Float64bits(math.Exp(probe)); {
	case got != probeFMABits && got != probeSSE2Bits:
		t.Fatalf("math.Exp(probe) = %#x matches neither sequence (fma %#x, sse2 %#x)",
			got, uint64(probeFMABits), uint64(probeSSE2Bits))
	case (got == probeFMABits) != useFMA:
		t.Fatalf("math.Exp(probe) = %#x but useFMA = %v", got, useFMA)
	}
}

// TestExpReplicaMatchesMathExp keeps the replica honest: where
// math.Exp runs the FMA sequence, the replica must reproduce it.
func TestExpReplicaMatchesMathExp(t *testing.T) {
	if !useFMA {
		t.Skip("math.Exp runs the SSE2 sequence on this host")
	}
	for i := 0; i <= 20000; i++ {
		x := -708 + 1417*float64(i)/20000
		if got, want := expFMARef(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("replica exp(%v) = %v, math.Exp %v", x, got, want)
		}
	}
}
