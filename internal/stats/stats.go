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

// Running tracks a running mean/min/max/count without retaining samples.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	// m2 (Welford's sum of squared deviations) and min have no reader;
	// they are kept because snapshots carry them.
	m2  float64
	min float64
	max float64
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

// Max reports the largest sample seen (0 when empty).
func (r *Running) Max() float64 { return r.max }

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
	if next.n < 0 {
		return fmt.Errorf("stats: running: negative sample count %d", next.n)
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
