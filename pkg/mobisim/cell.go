package mobisim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Cell-level sweep access.
//
// A Cell is the one description of a sweep point: Matrix.expand turns
// a matrix into cells, each carrying the scenario it executes, its
// index and its replicate, and AggregateCells folds (cell, metrics)
// pairs into the SweepSummary/SweepStat/SweepResult serialization
// contract. RunSweep is exactly expand → RunScenarios →
// AggregateCells. Services that cache, dedupe or shard simulations
// wrap their own executor in the same two halves: ExpandCells is the
// expansion plus each cell's CellKey, the stable content hash that
// addresses it. An external executor that runs every cell of
// ExpandCells through the engine and feeds the metrics to
// AggregateCells produces output byte-identical to RunSweep — the
// invariant the simd daemon's content-addressed cache is built on.

// Cell is one expanded sweep point together with its content identity.
type Cell struct {
	// Index is the cell's position in the expanded matrix (0 for a
	// standalone scenario cell).
	Index int
	// Spec is the fully-resolved scenario this cell executes — for
	// matrix expansions, the same engine-facing spec RunSweep's
	// executors build (normalized, ModelOnlyBML set).
	Spec Scenario
	// Replicate numbers the seed replicate within the parameter cell.
	Replicate int
	// Key is Spec.CellKey(): the stable content hash of the executed
	// configuration. Equal keys mean byte-identical results.
	Key uint64
}

// ExpandCells expands a matrix into its content-addressed cells in the
// exact order and shape RunSweep executes: the limits axis collapsed
// for limit-agnostic governor arms, seeds derived per replicate, and
// each cell's spec identical to what the sweep executors run.
func ExpandCells(m Matrix) ([]Cell, error) {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cells := m.expand()
	for i := range cells {
		key, err := cells[i].Spec.CellKey()
		if err != nil {
			return nil, fmt.Errorf("mobisim: cell %d (%s): %w", i, cells[i].groupKey(), err)
		}
		cells[i].Key = key
	}
	return cells, nil
}

// CellForScenario wraps one standalone scenario as a content-addressed
// cell: normalized, validated, and keyed. Unlike matrix expansion it
// does not force ModelOnlyBML — the cell executes exactly the spec the
// caller submitted, and the key addresses exactly that.
func CellForScenario(s Scenario) (Cell, error) {
	c := s.cloneRefs()
	c.Normalize()
	if err := c.Validate(); err != nil {
		return Cell{}, err
	}
	key, err := c.CellKey()
	if err != nil {
		return Cell{}, err
	}
	return Cell{Spec: c, Key: key}, nil
}

// groupKey identifies the cell's parameter cell — every axis except
// the replicate — and is the grouping key of AggregateCells.
func (c Cell) groupKey() string {
	s := c.Spec
	return fmt.Sprintf("%s|%s|%s|%g|%gs", s.Platform, s.Workload, s.Governor, s.LimitC, s.DurationS)
}

// AggregateCells folds per-cell metric sets (metrics[i] belongs to
// cells[i]) into a SweepOutput: one summary per parameter cell, in
// first-occurrence order, with metric names sorted, so the same result
// set always aggregates to byte-identical output. RunSweep ends here
// too, so external executors produce byte-identical output.
func AggregateCells(cells []Cell, metrics []map[string]float64, includeRaw bool) (*SweepOutput, error) {
	if len(metrics) != len(cells) {
		return nil, fmt.Errorf("mobisim: aggregate: %d metric sets for %d cells", len(metrics), len(cells))
	}
	type group struct {
		key     string
		first   Scenario
		n       int
		samples map[string][]float64
	}
	index := make(map[string]*group)
	var order []*group
	out := &SweepOutput{}
	for i, c := range cells {
		k := c.groupKey()
		g, ok := index[k]
		if !ok {
			g = &group{key: k, first: c.Spec, samples: make(map[string][]float64)}
			index[k] = g
			order = append(order, g)
		}
		g.n++
		for name, v := range metrics[i] {
			g.samples[name] = append(g.samples[name], v)
		}
		if includeRaw {
			out.Results = append(out.Results, SweepResult{
				Index: c.Index, Platform: c.Spec.Platform, Workload: c.Spec.Workload,
				Governor: c.Spec.Governor, LimitC: c.Spec.LimitC, Replicate: c.Replicate,
				Seed: c.Spec.Seed, Metrics: metrics[i],
			})
		}
	}
	for _, g := range order {
		names := make([]string, 0, len(g.samples))
		for name := range g.samples {
			names = append(names, name)
		}
		sort.Strings(names)
		ms := make(map[string]SweepStat, len(names))
		for _, name := range names {
			st, err := newSweepStat(g.samples[name])
			if err != nil {
				return nil, fmt.Errorf("mobisim: aggregate %s metric %s: %w", g.key, name, err)
			}
			ms[name] = st
		}
		s := g.first
		out.Summaries = append(out.Summaries, SweepSummary{
			Platform: s.Platform, Workload: s.Workload, Governor: s.Governor,
			LimitC: s.LimitC, DurationS: s.DurationS, Replicates: g.n,
			Metrics: ms, MetricNames: names,
		})
	}
	return out, nil
}

// newSweepStat computes the replicate statistics of one metric.
func newSweepStat(xs []float64) (SweepStat, error) {
	var st SweepStat
	var errs [5]error
	st.Mean, errs[0] = stats.Mean(xs)
	st.Min, errs[1] = stats.Min(xs)
	st.Max, errs[2] = stats.Max(xs)
	st.P50, errs[3] = stats.Quantile(xs, 0.5)
	st.P95, errs[4] = stats.Quantile(xs, 0.95)
	return st, errors.Join(errs[:]...)
}
