package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
	"repro/pkg/mobisim"
)

// batchWidth is the lane width every workload runs at: the daemon's
// default and the explore evaluator's default.
const batchWidth = mobisim.DefaultBatchWidth

// seam replays cells through the exported pkg/mobisim batch seam —
// CellKey, New, PlanBatchUnits, BatchRunner.RunUnit, AggregateCells and
// SweepOutput.EncodeJSON — one call at a time with a timer around each,
// the traced counterpart of what RunSweep, the daemon and Optimize do
// inside. It also times Engine.Snapshot and Engine.Restore on sampled
// cells, and counts the work the replayed units did.
type seam struct {
	runner mobisim.BatchRunner
	// timer is the clock-read bias subtracted from every span.
	timer float64

	cellKeyNs, newNs, planNs, runNs, aggNs, encNs float64
	jobs                                          int
	work                                          workCounts

	snapshots                       int
	snapNs, restoreNs, snapBytesSum float64
}

// workCounts are the deterministic work counts of replayed units: the
// same cells always plan into the same units and simulate the same
// steps, so equal inputs give equal counts in every run.
type workCounts struct {
	cells, units int
	// lanes counts lockstep lanes, slots the lanes the units could hold.
	lanes, slots int
	// computed cells ran their full horizon, forked cells resumed from a
	// prefix checkpoint, shared cells reused an identical run outright.
	computed, forked, shared int
	laneSteps                int64
}

func (s *seam) since(t0 time.Time) float64 {
	return math.Max(0, float64(time.Since(t0).Nanoseconds())-s.timer)
}

// run executes specs as planned units, one unit after another, and
// returns the metric sets in spec order.
func (s *seam) run(ctx context.Context, specs []mobisim.Scenario, warm bool) ([]map[string]float64, error) {
	for i := range specs {
		t0 := time.Now()
		_, err := specs[i].CellKey()
		s.cellKeyNs += s.since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		_, err = mobisim.New(specs[i], mobisim.WithoutRecording())
		s.newNs += s.since(t0)
		if err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	units, err := mobisim.PlanBatchUnits(specs, batchWidth, warm)
	s.planNs += s.since(t0)
	if err != nil {
		return nil, err
	}
	sinks := make([]mobisim.StatsSink, len(specs))
	opt := mobisim.BatchRunOptions{Observer: func(i int) mobisim.Observer { return &sinks[i] }}
	out := make([]map[string]float64, len(specs))
	for _, u := range units {
		t0 := time.Now()
		metrics, err := s.runner.RunUnit(ctx, specs, u, batchWidth, opt)
		s.runNs += s.since(t0)
		if err != nil {
			return nil, err
		}
		if len(metrics) != len(u.Idx) {
			return nil, fmt.Errorf("unit returned %d metric sets for %d cells", len(metrics), len(u.Idx))
		}
		for k, i := range u.Idx {
			out[i] = metrics[k]
		}
		lanes, err := unitLanes(specs, u)
		if err != nil {
			return nil, err
		}
		s.work.units++
		s.work.lanes += lanes
		s.work.slots += batchWidth
	}
	for i := range specs {
		steps, period := cellSteps(specs[i])
		full := (steps + period - 1) / period
		switch n := sinks[i].Samples(); {
		case n == full:
			s.work.computed++
			s.work.laneSteps += int64(steps)
		case n == 0:
			s.work.shared++
		default:
			s.work.forked++
			s.work.laneSteps += int64(n * period)
		}
	}
	s.work.cells += len(specs)
	return out, nil
}

// unitLanes is a unit's lockstep lane count: every cell of a cold unit,
// one sentinel lane per prefix group of a warm unit.
func unitLanes(specs []mobisim.Scenario, u mobisim.BatchPlanUnit) (int, error) {
	if !u.Warm {
		return len(u.Idx), nil
	}
	groups := make(map[uint64]bool)
	for _, i := range u.Idx {
		pk, err := specs[i].PrefixKey()
		if err != nil {
			return 0, err
		}
		groups[pk] = true
	}
	return len(groups), nil
}

// cellSteps returns a cell's integration step count and the steps per
// observer sample, mirroring the engine's defaults.
func cellSteps(spec mobisim.Scenario) (steps, period int) {
	step := spec.StepS
	if step == 0 {
		step = sim.DefaultStepS
	}
	trace := spec.TracePeriodS
	if trace == 0 {
		trace = sim.DefaultTracePeriodS
	}
	return int(math.Round(spec.DurationS / step)), int(math.Round(trace / step))
}

// encode folds a job's metric sets into its response body through
// AggregateCells and EncodeJSON.
func (s *seam) encode(cells []mobisim.Cell, metrics []map[string]float64, includeRaw bool) ([]byte, error) {
	t0 := time.Now()
	out, err := mobisim.AggregateCells(cells, metrics, includeRaw)
	s.aggNs += s.since(t0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t0 = time.Now()
	err = out.EncodeJSON(&buf)
	s.encNs += s.since(t0)
	if err != nil {
		return nil, err
	}
	s.jobs++
	return buf.Bytes(), nil
}

// fork runs spec to its midpoint, snapshots it, restores the blob into a
// fresh engine, finishes the run there, and reports whether the forked
// run's metrics equal want bit for bit.
func (s *seam) fork(spec mobisim.Scenario, want map[string]float64) (bool, error) {
	src, err := mobisim.New(spec, mobisim.WithoutRecording())
	if err != nil {
		return false, err
	}
	steps, _ := cellSteps(spec)
	half := steps / 2
	if err := src.RunSteps(half); err != nil {
		return false, err
	}
	t0 := time.Now()
	blob, err := src.Snapshot()
	s.snapNs += s.since(t0)
	if err != nil {
		return false, err
	}
	dst, err := mobisim.New(spec, mobisim.WithoutRecording())
	if err != nil {
		return false, err
	}
	t0 = time.Now()
	err = dst.Restore(blob)
	s.restoreNs += s.since(t0)
	if err != nil {
		return false, err
	}
	s.snapshots++
	s.snapBytesSum += float64(len(blob))
	if err := dst.RunSteps(steps - half); err != nil {
		return false, err
	}
	return sameMetrics(dst.Metrics(), want), nil
}

// report sets the seam's per-layer metrics.
func (s *seam) report(r *report) {
	cells := float64(s.work.cells)
	r.set("mobisim.cellkey_us", ratio(s.cellKeyNs, cells)/1e3)
	r.set("mobisim.new_us", ratio(s.newNs, cells)/1e3)
	r.set("mobisim.plan_us", ratio(s.planNs, cells)/1e3)
	r.set("mobisim.run_unit_us", ratio(s.runNs, cells)/1e3)
	r.set("mobisim.batch_occupancy", ratio(float64(s.work.lanes), float64(s.work.slots)))
	r.set("mobisim.warm_fork_ratio", ratio(float64(s.work.forked), cells))
	r.set("mobisim.aggregate_us", ratio(s.aggNs, float64(s.jobs))/1e3)
	r.set("mobisim.encode_us", ratio(s.encNs, float64(s.jobs))/1e3)
	r.set("sim.lane_steps", float64(s.work.laneSteps))
	r.set("sim.snapshots", float64(s.snapshots))
	r.set("sim.snapshot_us", ratio(s.snapNs, float64(s.snapshots))/1e3)
	r.set("sim.restore_us", ratio(s.restoreNs, float64(s.snapshots))/1e3)
	r.set("sim.snapshot_bytes", ratio(s.snapBytesSum, float64(s.snapshots)))
	r.set("work.cells", cells)
	r.set("work.computed", float64(s.work.computed))
	r.set("work.forked", float64(s.work.forked))
	r.set("work.shared", float64(s.work.shared))
}

// sameMetrics reports whether two metric sets are bitwise equal.
func sameMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
