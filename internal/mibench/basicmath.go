// Package mibench reimplements the compute kernels of MiBench's
// "basicmath large" (BML) benchmark — cubic equation roots, integer
// square root, and degree/radian conversion — which the paper runs as
// the background task on the Odroid-XU3 (Section IV-C, citing Guthaus
// et al., WWC 2001).
//
// The kernels are real computations, not stubs: the simulator's BML
// workload executes them to produce checkable results, and a cycle-cost
// model converts completed operations into CPU cycle demand.
package mibench

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/snapbin"
)

// SolveCubic finds the real roots of a·x³ + b·x² + c·x + d = 0 using the
// trigonometric/Cardano method, mirroring MiBench's SolveCubic. The
// returned slice holds 1 or 3 real roots in unspecified order.
func SolveCubic(a, b, c, d float64) ([]float64, error) {
	if a == 0 {
		return nil, errors.New("mibench: leading coefficient must be non-zero")
	}
	if anyNaN(a, b, c, d) {
		return nil, errors.New("mibench: NaN coefficient")
	}
	a1 := b / a
	a2 := c / a
	a3 := d / a
	q := (a1*a1 - 3*a2) / 9
	r := (2*a1*a1*a1 - 9*a1*a2 + 27*a3) / 54
	disc := q*q*q - r*r

	if disc >= 0 {
		// Three real roots (possibly repeated).
		if q == 0 {
			// Triple root.
			return []float64{-a1 / 3}, nil
		}
		theta := math.Acos(clamp(r/math.Sqrt(q*q*q), -1, 1))
		sq := -2 * math.Sqrt(q)
		return []float64{
			sq*math.Cos(theta/3) - a1/3,
			sq*math.Cos((theta+2*math.Pi)/3) - a1/3,
			sq*math.Cos((theta+4*math.Pi)/3) - a1/3,
		}, nil
	}
	// One real root.
	e := math.Cbrt(math.Sqrt(-disc) + math.Abs(r))
	if r > 0 {
		e = -e
	}
	x := e + q/e - a1/3
	if e == 0 {
		x = -a1 / 3
	}
	return []float64{x}, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func anyNaN(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// ISqrt returns the integer square root of n (the largest s with
// s² ≤ n), using the bit-by-bit method MiBench's usqrt uses.
func ISqrt(n uint64) uint64 {
	var root, rem uint64
	rem = n
	var place uint64 = 1 << 62
	for place > rem {
		place >>= 2
	}
	for place != 0 {
		if rem >= root+place {
			rem -= root + place
			root += place << 1
		}
		root >>= 1
		place >>= 2
	}
	return root
}

// Deg2Rad converts degrees to radians.
func Deg2Rad(deg float64) float64 { return deg * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Cycle costs per operation for the cycle-demand model. The absolute
// values are arbitrary reference-core cycles; only their relative
// magnitudes matter to the simulator.
const (
	CyclesPerCubic = 900
	CyclesPerISqrt = 120
	CyclesPerConv  = 15
)

// Workload runs the BML operation mix incrementally. One "iteration"
// matches MiBench large: a batch of cubic solves, integer square roots,
// and angle conversions. Results are accumulated into a checksum so the
// work cannot be optimized away and can be verified deterministically.
type Workload struct {
	iterations uint64
	checksum   float64
	rootCount  uint64
}

// CyclesPerIteration is the modeled cost of one full BML iteration.
const CyclesPerIteration = 16*CyclesPerCubic + 64*CyclesPerISqrt + 360*CyclesPerConv

// RunIterations executes n BML iterations and returns the cycle cost
// they represent.
func (w *Workload) RunIterations(n uint64) uint64 {
	for i := uint64(0); i < n; i++ {
		w.runOne()
	}
	return n * CyclesPerIteration
}

func (w *Workload) runOne() {
	k := float64(w.iterations%100) + 1
	// 16 cubic solves with varying coefficients (mirrors the a1..a4
	// sweeps in basicmath's main loop).
	for j := 0; j < 16; j++ {
		roots, err := SolveCubic(1, -3-k/10, float64(j)-2, 4+k/20)
		if err == nil {
			w.rootCount += uint64(len(roots))
			for _, r := range roots {
				w.checksum += r
			}
		}
	}
	// 64 integer square roots.
	for j := uint64(0); j < 64; j++ {
		w.checksum += float64(ISqrt(w.iterations*1000 + j*j*37))
	}
	// 360 angle conversions both ways.
	for d := 0; d < 360; d++ {
		w.checksum += Rad2Deg(Deg2Rad(float64(d))) - float64(d)
	}
	w.iterations++
}

// Iterations reports how many full iterations have run.
func (w *Workload) Iterations() uint64 { return w.iterations }

// Checksum returns the accumulated result checksum; it depends only on
// the number of iterations run, making runs verifiable.
func (w *Workload) Checksum() float64 { return w.checksum }

// SaveState serializes the workload's progress for engine snapshots.
func (w *Workload) SaveState(sw *snapbin.Writer) {
	sw.PutU64(w.iterations)
	sw.PutF64(w.checksum)
	sw.PutU64(w.rootCount)
}

// LoadState restores state saved by SaveState.
func (w *Workload) LoadState(r *snapbin.Reader) error {
	var next Workload
	next.iterations = r.U64()
	next.checksum = r.F64()
	next.rootCount = r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("mibench: workload: %w", err)
	}
	*w = next
	return nil
}
