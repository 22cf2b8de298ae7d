package sweep

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Result is one completed scenario with its extracted metrics.
type Result struct {
	// Scenario is the point that was run.
	Scenario Scenario
	// Metrics maps metric names to scalar values.
	Metrics map[string]float64
}

// Stat summarizes one metric across the seed replicates of a cell.
type Stat struct {
	Mean float64
	Min  float64
	Max  float64
	P50  float64
	P95  float64
}

// Summary is one parameter cell's aggregate across replicates.
type Summary struct {
	// Platform, Workload, Governor, LimitC and DurationS identify the
	// cell (the scenario axes minus the replicate).
	Platform  string
	Workload  string
	Governor  string
	LimitC    float64
	DurationS float64
	// Replicates counts the results folded into the cell.
	Replicates int
	// Metrics maps metric names to their replicate statistics.
	Metrics map[string]Stat
	// MetricNames lists the metric keys sorted, for deterministic
	// rendering.
	MetricNames []string
}

// Aggregate folds per-scenario results into per-cell summaries. Cells
// appear in first-occurrence order — for pool output, matrix order —
// and metric names are sorted within each cell, so the same result set
// always aggregates to byte-identical summaries.
func Aggregate(results []Result) ([]Summary, error) {
	type cell struct {
		sc      Scenario
		n       int
		samples map[string][]float64
	}
	index := make(map[string]*cell)
	var order []string
	for _, r := range results {
		k := r.Scenario.Key()
		c, ok := index[k]
		if !ok {
			c = &cell{sc: r.Scenario, samples: make(map[string][]float64)}
			index[k] = c
			order = append(order, k)
		}
		c.n++
		for name, v := range r.Metrics {
			c.samples[name] = append(c.samples[name], v)
		}
	}
	out := make([]Summary, 0, len(order))
	for _, k := range order {
		c := index[k]
		names := make([]string, 0, len(c.samples))
		for name := range c.samples {
			names = append(names, name)
		}
		sort.Strings(names)
		ms := make(map[string]Stat, len(names))
		for _, name := range names {
			st, err := newStat(c.samples[name])
			if err != nil {
				return nil, fmt.Errorf("sweep: aggregate %s metric %s: %w", k, name, err)
			}
			ms[name] = st
		}
		out = append(out, Summary{
			Platform:    c.sc.Platform,
			Workload:    c.sc.Workload,
			Governor:    c.sc.Governor,
			LimitC:      c.sc.LimitC,
			DurationS:   c.sc.DurationS,
			Replicates:  c.n,
			Metrics:     ms,
			MetricNames: names,
		})
	}
	return out, nil
}

// newStat computes the replicate statistics of one metric.
func newStat(xs []float64) (Stat, error) {
	mean, err := stats.Mean(xs)
	if err != nil {
		return Stat{}, err
	}
	lo, err := stats.Min(xs)
	if err != nil {
		return Stat{}, err
	}
	hi, err := stats.Max(xs)
	if err != nil {
		return Stat{}, err
	}
	p50, err := stats.Quantile(xs, 0.5)
	if err != nil {
		return Stat{}, err
	}
	p95, err := stats.Quantile(xs, 0.95)
	if err != nil {
		return Stat{}, err
	}
	return Stat{Mean: mean, Min: lo, Max: hi, P50: p50, P95: p95}, nil
}
