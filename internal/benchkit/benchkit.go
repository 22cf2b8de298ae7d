// Package benchkit holds the repository's perf-trajectory benchmark
// bodies in an importable form: the same functions back the
// `go test -bench` entry points in bench_test.go and the cmd/bench
// tool that materializes BENCH_*.json points via testing.Benchmark.
// Keeping one implementation in one place guarantees the committed
// trajectory measures exactly what CI's benchmark gates measure.
package benchkit

import (
	"context"
	"testing"

	"repro/internal/appaware"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// Seed is the benchmark seed, matching the historical bench_test value.
const Seed = 1

// SweepCells is the scenario count of the benchmark matrix.
const SweepCells = 8

// SweepMatrix returns the 8-scenario sweep benchmark matrix: the
// 3DMark+BML thermal-limit study (4 limits × 2 seed replicates, 10
// simulated seconds) BenchmarkSweepParallel has always run, in the
// facade's declarative form.
func SweepMatrix() mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    []float64{52, 58, 64, 70},
		Replicates: 2,
		DurationS:  10,
		BaseSeed:   Seed,
	}
}

// SweepParallel returns the width-1 sweep benchmark: the matrix
// executed one lane per unit, each engine stepping alone, on a worker
// pool of the given size. It reports cells/sec, the sweep throughput headline.
func SweepParallel(workers int) func(b *testing.B) {
	return sweepBench(mobisim.SweepConfig{Workers: workers})
}

// SweepBatched returns the batched lockstep sweep benchmark: the same
// matrix executed on pooled batch engines with the given lane width.
// Output bytes are identical to SweepParallel's; only the throughput
// differs.
func SweepBatched(width int) func(b *testing.B) {
	return sweepBench(mobisim.SweepConfig{Workers: 1, BatchWidth: width})
}

func sweepBench(cfg mobisim.SweepConfig) func(b *testing.B) {
	return sweepBenchOn(SweepMatrix(), 4, SweepCells, cfg)
}

// sweepBenchOn runs one matrix under one executor configuration,
// checking the cell count and reporting cells/sec throughput.
func sweepBenchOn(matrix mobisim.Matrix, summaries, cells int, cfg mobisim.SweepConfig) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := mobisim.RunSweep(context.Background(), matrix, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(out.Summaries) != summaries {
				b.Fatalf("want %d cells, got %d", summaries, len(out.Summaries))
			}
		}
		b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/sec")
	}
}

// WarmSweepCells is the scenario count of the replicate-heavy matrix.
const WarmSweepCells = 32

// WarmSweepMatrix returns the replicate-heavy warm-start reference
// matrix: 4 thermal limits × 8 seed replicates of the Odroid 3DMark+BML
// appaware study, 10 simulated seconds each. The limits sit above the
// governor's early-action region on this workload, so warm groups share
// long prefixes — the case prefix warm-start exists for. Cold and warm
// executors produce byte-identical output on it (pinned by the mobisim
// warm-start tests); only throughput differs.
func WarmSweepMatrix() mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    []float64{61, 64, 67, 70},
		Replicates: 8,
		DurationS:  10,
		BaseSeed:   Seed,
	}
}

// SweepWarm returns the warm-start sweep benchmark: the replicate-heavy
// matrix with prefix grouping and fork-from-snapshot enabled, forks
// running at the given lane width (0 = one lane).
func SweepWarm(width int) func(b *testing.B) {
	return sweepBenchOn(WarmSweepMatrix(), 4, WarmSweepCells,
		mobisim.SweepConfig{Workers: 1, BatchWidth: width, WarmStart: true})
}

// SweepWarmColdBaseline returns the cold counterpart of SweepWarm: the
// same replicate-heavy matrix on the batched lockstep executor without
// warm-start, so the committed trajectory carries both sides of the
// comparison.
func SweepWarmColdBaseline(width int) func(b *testing.B) {
	return sweepBenchOn(WarmSweepMatrix(), 4, WarmSweepCells,
		mobisim.SweepConfig{Workers: 1, BatchWidth: width})
}

// NewEngine builds the Odroid 3DMark+BML application-aware scenario —
// the whole-simulator benchmark workload — with the given seed.
// Recording is disabled (the sweep pool's constant-memory
// configuration, and the strict zero-alloc target).
func NewEngine(b *testing.B, seed int64) *sim.Engine {
	b.Helper()
	return newEngineObserved(b, seed, nil)
}

// newEngineObserved is NewEngine with an optional observer attached —
// the configuration the batched daemon runs lanes in. Observers never
// perturb the dynamics, so observed engines are byte-identical to
// unobserved ones.
func newEngineObserved(b *testing.B, seed int64, obs sim.Observer) *sim.Engine {
	b.Helper()
	plat := platform.OdroidXU3(seed)
	bml := workload.NewBML()
	bml.ExecuteRatio = 0
	gov, err := appaware.New(appaware.Config{HorizonS: 30, IntervalS: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	bigGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		b.Fatal(err)
	}
	littleGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		b.Fatal(err)
	}
	gpuGov, err := governor.NewOndemand(governor.DefaultOndemandConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: workload.NewThreeDMark(seed), PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: littleGov,
			platform.DomBig:    bigGov,
			platform.DomGPU:    gpuGov,
		},
		Controller:       gov,
		DisableRecording: true,
	}
	if obs != nil {
		cfg.Observers = []sim.Observer{obs}
	}
	eng, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := plat.Prewarm(50); err != nil {
		b.Fatal(err)
	}
	return eng
}

// EngineStep measures one scalar engine step (the oracle path) on the
// full Odroid scenario — the per-step counterpart of
// BenchmarkEngineStepNoRecording.
func EngineStep(b *testing.B) {
	eng := NewEngine(b, Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunSteps(1); err != nil {
			b.Fatal(err)
		}
	}
}

// ForkedEngineStep measures one scalar step on an engine forked from a
// snapshot: the source engine runs into steady state, snapshots, and a
// fresh engine restores the blob and crosses a few control ticks before
// the timer starts. This is the warm-start executor's fork-path steady
// state, and CI gates it at 0 allocs/op alongside the cold step
// benchmarks — restoring must not leave the step loop allocating.
func ForkedEngineStep(b *testing.B) {
	src := NewEngine(b, Seed)
	if err := src.RunSteps(2000); err != nil {
		b.Fatal(err)
	}
	blob, err := src.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(b, Seed)
	if err := eng.Restore(blob); err != nil {
		b.Fatal(err)
	}
	// Cross two control ticks so lazily rebuilt caches (stability
	// params, power lookups) are paid before the measurement.
	if err := eng.RunSteps(200); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunSteps(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BatchEngineStep returns the batched-step benchmark: width lanes of
// the Odroid scenario (distinct seeds) advanced one fused lockstep
// step per iteration. ns/op spans the whole batch; the ns/lane-step
// metric divides it down for comparison with EngineStep.
func BatchEngineStep(width int) func(b *testing.B) {
	return func(b *testing.B) {
		lanes := make([]*sim.Engine, width)
		for i := range lanes {
			lanes[i] = NewEngine(b, int64(i+1))
		}
		be, err := sim.NewBatchEngine(lanes)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := be.RunSteps(1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/lane-step")
	}
}

// BatchNetworkStep returns the thermal-kernel benchmark: width Odroid
// thermal networks (distinct seeds, prewarmed to 50 °C) under a fixed
// packed power injection, advanced one BatchNetwork.Step per
// iteration. It isolates the RK4 layer of BatchEngineStep; CI gates it
// at 0 allocs/op. Widths that are not a multiple of 8 run padded
// 8-lane blocks, so ns/lane-step shows what a partial unit costs.
func BatchNetworkStep(width int) func(b *testing.B) {
	return func(b *testing.B) {
		nets := make([]*thermal.Network, width)
		for i := range nets {
			plat := platform.OdroidXU3(int64(i + 1))
			if err := plat.Prewarm(50); err != nil {
				b.Fatal(err)
			}
			nets[i] = plat.Net
		}
		bn, err := thermal.NewBatchNetwork(nets)
		if err != nil {
			b.Fatal(err)
		}
		packed := make([]float64, bn.NumNodes()*width)
		for x := range packed {
			packed[x] = 0.25 * float64(x%7)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bn.Step(0.001, packed); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/lane-step")
	}
}

// LeakageExp returns the leakage-layer benchmark: width Odroid lanes
// (distinct seeds, prewarmed to 50 °C), each iteration staging the
// three domains' leakage exponents at the node temperatures, one
// power.ExpInto over all 3·width of them, and each domain's leakage
// power — the leakage work of one BatchEngine step (stepPre's staging,
// the fused exponentials, stepPower's PowerExp). CI gates it at 0
// allocs/op.
func LeakageExp(width int) func(b *testing.B) {
	return func(b *testing.B) {
		type domain struct {
			leak         power.LeakageParams
			volts, tempK float64
		}
		var doms []domain
		for l := 0; l < width; l++ {
			plat := platform.OdroidXU3(int64(l + 1))
			if err := plat.Prewarm(50); err != nil {
				b.Fatal(err)
			}
			for _, id := range platform.DomainIDs() {
				tempK, err := plat.Net.Temperature(plat.Node(id))
				if err != nil {
					b.Fatal(err)
				}
				doms = append(doms, domain{plat.Model(id).Leakage, plat.Domain(id).CurrentOPP().VoltageV, tempK})
			}
		}
		lk := make([]float64, len(doms))
		total := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, d := range doms {
				lk[j] = d.leak.Exponent(d.tempK)
			}
			power.ExpInto(lk, lk)
			for j, d := range doms {
				total += d.leak.PowerExp(d.volts, d.tempK, lk[j])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/lane-step")
		if !(total > 0) {
			b.Fatalf("leakage power sums to %v", total)
		}
	}
}

// slotObserver models the daemon's per-lane sample tap in its
// constant-memory form: the scalar channels are copied into a reused
// slot, never retaining the engine-owned slices.
type slotObserver struct {
	timeS, maxK, sensorK, totalW float64
}

func (o *slotObserver) OnSample(s *sim.Sample) error {
	o.timeS, o.maxK, o.sensorK, o.totalW = s.TimeS, s.MaxTempK, s.SensorK, s.TotalW
	return nil
}

// BatchEngineStepObserved is BatchEngineStep with a per-lane sample
// observer attached — the configuration the batched simd daemon steps
// lanes in. CI gates it at 0 allocs/op: attaching observers must not
// make the fused step loop allocate.
func BatchEngineStepObserved(width int) func(b *testing.B) {
	return func(b *testing.B) {
		lanes := make([]*sim.Engine, width)
		slots := make([]slotObserver, width)
		for i := range lanes {
			lanes[i] = newEngineObserved(b, int64(i+1), &slots[i])
		}
		be, err := sim.NewBatchEngine(lanes)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := be.RunSteps(1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/lane-step")
	}
}
