// Package stats provides small, allocation-conscious statistics helpers
// shared by the trace, workload and benchmark layers: medians, quantiles,
// histograms, running means and residency accounting.
//
// All functions treat NaN inputs as programming errors and will propagate
// them rather than silently dropping samples, so callers can detect model
// bugs early.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/snapbin"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs.
// It returns 0 and ErrEmpty when xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs without modifying the input.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Running tracks a running mean/min/max/count without retaining samples.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the running aggregate using Welford's algorithm.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.mean, r.min, r.max = x, x, x
		r.m2 = 0
		return
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
	if x < r.min {
		r.min = x
	}
	if x > r.max {
		r.max = x
	}
}

// Count reports the number of samples folded in.
func (r *Running) Count() int { return r.n }

// Mean reports the running mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Min reports the smallest sample seen (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max reports the largest sample seen (0 when empty).
func (r *Running) Max() float64 { return r.max }

// Variance reports the running population variance (0 when n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev reports the running population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Reset returns the aggregate to its empty state.
func (r *Running) Reset() { *r = Running{} }

// SaveState serializes the running aggregate.
func (r *Running) SaveState(w *snapbin.Writer) {
	w.PutInt(r.n)
	w.PutF64(r.mean)
	w.PutF64(r.m2)
	w.PutF64(r.min)
	w.PutF64(r.max)
}

// LoadState restores state saved by SaveState.
func (r *Running) LoadState(rd *snapbin.Reader) error {
	var next Running
	next.n = rd.Int()
	next.mean = rd.F64()
	next.m2 = rd.F64()
	next.min = rd.F64()
	next.max = rd.F64()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("stats: running: %w", err)
	}
	*r = next
	return nil
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ApproxEqual reports whether a and b are within tol of each other.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}
