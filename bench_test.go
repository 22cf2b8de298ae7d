// Package repro_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus ablation benchmarks for the
// model's design choices and micro-benchmarks of the hot substrate
// paths.
//
// Experiment benchmarks run the study of the arms their artifact reads
// and report its headline quantity as a custom metric (FPS, °C,
// shares), so a bench run doubles as a reproduction log: compare the
// reported metrics with the paper's values (PAPER.md).
package repro_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/appaware"
	"repro/internal/benchkit"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/platform/frozen"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stability"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

const benchSeed = 1

// benchStudy runs the paper arms of the given Nexus apps and Odroid
// benchmarks at benchSeed.
func benchStudy(b *testing.B, apps, benches []string) *experiments.Study {
	b.Helper()
	st, err := experiments.NewStudy(benchSeed, apps, benches)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkFig1PaperIOTemperature regenerates Figure 1: the Paper.io
// temperature profiles with and without throttling.
func BenchmarkFig1PaperIOTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, []string{"paper.io"}, nil).TempProfile("paper.io")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without.Max(), "peakC-free")
		b.ReportMetric(res.With.Max(), "peakC-throttled")
	}
}

// BenchmarkFig2PaperIOGPUResidency regenerates Figure 2: Paper.io GPU
// frequency residency.
func BenchmarkFig2PaperIOGPUResidency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, []string{"paper.io"}, nil).Residency("paper.io", platform.DomGPU)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without[510e6]*100, "pct510-free")
		b.ReportMetric(res.With[510e6]*100, "pct510-throttled")
	}
}

// BenchmarkFig3StickmanTemperature regenerates Figure 3.
func BenchmarkFig3StickmanTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, []string{"stickman-hook"}, nil).TempProfile("stickman-hook")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without.Max(), "peakC-free")
		b.ReportMetric(res.With.Max(), "peakC-throttled")
	}
}

// BenchmarkFig4StickmanGPUResidency regenerates Figure 4.
func BenchmarkFig4StickmanGPUResidency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, []string{"stickman-hook"}, nil).Residency("stickman-hook", platform.DomGPU)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without[390e6]*100, "pct390-free")
		b.ReportMetric(res.With[390e6]*100, "pct390-throttled")
	}
}

// BenchmarkFig5AmazonTemperature regenerates Figure 5.
func BenchmarkFig5AmazonTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, []string{"amazon"}, nil).TempProfile("amazon")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without.Max(), "peakC-free")
		b.ReportMetric(res.With.Max(), "peakC-throttled")
	}
}

// BenchmarkFig6AmazonBigResidency regenerates Figure 6: Amazon big
// cluster residency (the paper highlights the 384 MHz shift).
func BenchmarkFig6AmazonBigResidency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, []string{"amazon"}, nil).Residency("amazon", platform.DomBig)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Without[384e6]*100, "pct384-free")
		b.ReportMetric(res.With[384e6]*100, "pct384-throttled")
	}
}

// BenchmarkTable1MedianFPS regenerates Table I: median FPS across the
// five apps under both arms. The reported metric is the largest
// percentage reduction ("up to 34%" in the paper's abstract).
func BenchmarkTable1MedianFPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchStudy(b, experiments.NexusApps, nil).Table1()
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.ReductionPct > worst {
				worst = r.ReductionPct
			}
		}
		b.ReportMetric(worst, "maxReductionPct")
	}
}

// BenchmarkFig7FixedPoint regenerates Figure 7: the fixed-point
// function at 2 W, the critical power, and 8 W.
func BenchmarkFig7FixedPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, crit, err := experiments.Fig7Experiment()
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 3 {
			b.Fatalf("want 3 curves, got %d", len(curves))
		}
		b.ReportMetric(crit, "criticalW")
	}
}

// BenchmarkFig8MaxTemperature regenerates Figure 8: the maximum system
// temperature under the three 3DMark scenarios.
func BenchmarkFig8MaxTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, nil, []string{"3dmark"}).Fig8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Alone.Max(), "peakC-alone")
		b.ReportMetric(res.WithBML.Max(), "peakC-bml")
		b.ReportMetric(res.Proposed.Max(), "peakC-proposed")
	}
}

// BenchmarkFig9PowerDistribution regenerates Figure 9: the power
// distribution pies of the three 3DMark scenarios.
func BenchmarkFig9PowerDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchStudy(b, nil, []string{"3dmark"}).Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[experiments.WithBML].TotalW, "totalW-bml")
		b.ReportMetric(res[experiments.WithBML].Shares[power.RailBig]*100, "bigPct-bml")
		b.ReportMetric(res[experiments.Proposed].Shares[power.RailLittle]*100, "littlePct-proposed")
	}
}

// BenchmarkTable2Proposed regenerates Table II: 3DMark GT1/GT2 and
// Nenamark under alone / +BML / proposed control.
func BenchmarkTable2Proposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchStudy(b, nil, experiments.OdroidBenches).Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WithBML, "gt1-bml")
		b.ReportMetric(rows[0].Proposed, "gt1-proposed")
		b.ReportMetric(rows[2].Proposed, "nenamark-proposed")
	}
}

// --- Ablation benchmarks (the model's design choices) ---

// odroidBMLScenario builds the 3DMark+BML engine with the given
// appaware configuration.
func odroidBMLScenario(b *testing.B, cfg appaware.Config, registerRT bool) (*sim.Engine, *appaware.Governor) {
	return odroidBMLScenarioRec(b, cfg, registerRT, false)
}

// odroidBMLScenarioRec additionally controls trace recording; the
// zero-alloc benchmark disables it to measure the bare step loop.
func odroidBMLScenarioRec(b *testing.B, cfg appaware.Config, registerRT, disableRecording bool) (*sim.Engine, *appaware.Governor) {
	b.Helper()
	plat := platform.OdroidXU3(benchSeed)
	bml := workload.NewBML()
	bml.ExecuteRatio = 0
	gov, err := appaware.New(cfg)
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
	eng, err := sim.New(sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: workload.NewThreeDMark(benchSeed), PID: 1, Cluster: sched.Big, Threads: 2, RealTime: registerRT},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: littleGov,
			platform.DomBig:    bigGov,
			platform.DomGPU:    gpuGov,
		},
		Controller:       gov,
		DisableRecording: disableRecording,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := plat.Prewarm(experiments.OdroidPrewarmC); err != nil {
		b.Fatal(err)
	}
	return eng, gov
}

// BenchmarkAblationControlPeriod sweeps the governor's control period
// (the paper fixes it at 100 ms): faster control reacts sooner at more
// overhead; slower control lets temperature overshoot.
func BenchmarkAblationControlPeriod(b *testing.B) {
	for _, period := range []float64{0.05, 0.1, 0.5, 2.0} {
		b.Run(fmtSeconds(period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, gov := odroidBMLScenario(b, appaware.Config{
					HorizonS:  30,
					IntervalS: period,
				}, true)
				if err := eng.Run(120); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(thermal.ToCelsius(eng.MaxTempSeenK()), "peakC")
				b.ReportMetric(float64(gov.Predictions()), "predictions")
			}
		})
	}
}

// BenchmarkAblationRTRegistration compares victim selection with and
// without the real-time registration interface. Without it, the
// foreground benchmark itself can be migrated — exactly the collateral
// damage the paper's registration mechanism prevents.
func BenchmarkAblationRTRegistration(b *testing.B) {
	for _, registered := range []bool{true, false} {
		name := "registered"
		if !registered {
			name = "unregistered"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, gov := odroidBMLScenario(b, appaware.Config{
					HorizonS:  30,
					IntervalS: 0.1,
				}, registered)
				if err := eng.Run(120); err != nil {
					b.Fatal(err)
				}
				fgMigrated := 0.0
				for _, ev := range gov.Events() {
					if ev.Kind == appaware.EventMigrate && ev.PID == 1 {
						fgMigrated = 1
					}
				}
				b.ReportMetric(fgMigrated, "foregroundMigrated")
				b.ReportMetric(float64(gov.Migrations()), "migrations")
			}
		})
	}
}

// BenchmarkAblationLimitSweep maps the thermal-limit trade-off space
// of the proposed governor (the extension study `repro -exp sweep`
// renders): foreground protection vs. background progress across
// limits.
func BenchmarkAblationLimitSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.LimitSweep([]float64{52, 60, 70}, 120, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].GT1FPS, "gt1-tight")
		b.ReportMetric(points[2].GT1FPS, "gt1-loose")
		b.ReportMetric(float64(points[0].BMLIterations)/1e6, "bmlMiters-tight")
		b.ReportMetric(float64(points[2].BMLIterations)/1e6, "bmlMiters-loose")
	}
}

// BenchmarkSweepParallel measures the worker pool under
// mobisim.RunSweep: the same 8-scenario 3DMark+BML limit matrix
// executed at width 1 (one engine per unit) on 1 and on 4 workers. On
// multi-core hardware the 4-worker run should complete >1.8× faster;
// the determinism invariant guarantees both report identical metrics.
func BenchmarkSweepParallel(b *testing.B) {
	matrix := mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    []float64{52, 58, 64, 70},
		Replicates: 2,
		DurationS:  10,
		BaseSeed:   benchSeed,
	}
	for _, workers := range []int{1, 4} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := mobisim.RunSweep(context.Background(), matrix, mobisim.SweepConfig{Workers: workers, BatchWidth: 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(out.Summaries) != 4 {
					b.Fatalf("want 4 cells, got %d", len(out.Summaries))
				}
				b.ReportMetric(out.Summaries[0].Metrics[mobisim.MetricPeakC].Mean, "peakC-tight")
				b.ReportMetric(out.Summaries[3].Metrics[mobisim.MetricPeakC].Mean, "peakC-loose")
			}
		})
	}
}

// BenchmarkSweepBatched measures the batched lockstep sweep executor
// on the same 8-scenario matrix as BenchmarkSweepParallel: scenarios
// grouped by thermal topology, packed into lanes, and stepped together
// through the fused structure-of-arrays thermal kernel on pooled
// engines. The cells/sec metric is the comparison point — the PR-4
// target is ≥2× BenchmarkSweepParallel — and the output bytes are
// pinned identical to per-cell runs by the mobisim differential tests.
func BenchmarkSweepBatched(b *testing.B) {
	for _, width := range []int{4, 8} {
		b.Run("width-"+itoa(width), benchkit.SweepBatched(width))
	}
}

// BenchmarkSweepSequentialBaseline is BenchmarkSweepParallel's matrix
// through the same facade entry point the batched benchmark uses
// (RunSweep at width 1), isolating the lane-width difference from any
// facade overhead for benchdiff comparisons.
func BenchmarkSweepSequentialBaseline(b *testing.B) {
	benchkit.SweepParallel(1)(b)
}

// BenchmarkSweepWarm measures the prefix warm-start executor on the
// replicate-heavy reference matrix (4 limits × 8 replicates): limit
// cells grouped by prefix content key, each group's warm-up simulated
// once on a sentinel, members forked from an engine snapshot. The
// cells/sec metric is the PR-6 headline — the target is ≥1.5× the cold
// batched executor on the same matrix — and warm output bytes are
// pinned to every cell run alone by the mobisim warm-start tests.
func BenchmarkSweepWarm(b *testing.B) {
	b.Run("batched-8", benchkit.SweepWarm(8))
	b.Run("scalar", benchkit.SweepWarm(1))
}

// BenchmarkSweepWarmColdBaseline is the cold counterpart of
// BenchmarkSweepWarm: the same replicate-heavy matrix planned without
// prefix groups and run unit by unit through BatchRunner.RunUnit, so
// benchdiff can compare like with like.
func BenchmarkSweepWarmColdBaseline(b *testing.B) {
	benchkit.SweepWarmColdBaseline(8)(b)
}

// BenchmarkDaemonSweepColdBatched measures the simd daemon's compute
// path end to end at width 8 (DefaultBatchWidth): the replicate-heavy
// matrix submitted over HTTP to an in-process server, simulated as
// lockstep units, encoded, and fetched. Each iteration shifts the base
// seed so its cells miss the cache.
func BenchmarkDaemonSweepColdBatched(b *testing.B) {
	benchkit.DaemonSweepColdBatched(b)
}

// BenchmarkDaemonSweepWarm is the cache-hit counterpart: the matrix is
// primed once outside the timer and every timed resubmission must be
// answered entirely from the content-addressed cache. Cold vs warm
// cells/sec is the PR-7 headline.
func BenchmarkDaemonSweepWarm(b *testing.B) {
	benchkit.DaemonSweepWarm(b)
}

// BenchmarkExploreGeneration measures the design-space-exploration
// loop: the committed benchmark search (limit × cpu-governor hill-climb
// on the Odroid) run cold — every generation evaluated as lockstep
// batches on pooled engines — and cache-warm, where a primed
// content-addressed cache must answer every cell. Cold vs warm
// cells/sec is the PR-8 headline, and the search trajectory itself is
// pinned byte-identical across executors by the optimize tests.
func BenchmarkExploreGeneration(b *testing.B) {
	b.Run("cold", benchkit.ExploreGenerationCold)
	b.Run("warm", benchkit.ExploreGenerationWarm)
}

// BenchmarkExploreCandidateStep measures the candidate-evaluation
// steady state: 8 mutated candidates coupled on a pooled lockstep
// engine, one fused step per iteration. CI gates it at 0 allocs/op —
// the explore loop's generations must not allocate while stepping.
func BenchmarkExploreCandidateStep(b *testing.B) {
	benchkit.ExploreCandidateStep(8)(b)
}

// BenchmarkEngineStepForked measures the steady-state step cost of an
// engine restored from a snapshot — the warm executor's fork path. CI
// gates it at 0 allocs/op next to the cold step benchmarks: restoring
// must not leave the step loop allocating.
func BenchmarkEngineStepForked(b *testing.B) {
	benchkit.ForkedEngineStep(b)
}

// BenchmarkBatchEngineStep measures one fused lockstep step across 8
// lanes of the Odroid scenario. CI gates it at 0 allocs/op — the
// batched path's steady-state allocation invariant — and the
// ns/lane-step metric is directly comparable to BenchmarkEngineStep.
func BenchmarkBatchEngineStep(b *testing.B) {
	benchkit.BatchEngineStep(8)(b)
}

// BenchmarkBatchNetworkStep measures the fused thermal RK4 step alone
// at widths 2 and 4 (one half block), 8 (one full block), 12 (a full
// block and a half block) and 16 (two blocks). CI gates every width at
// 0 allocs/op.
func BenchmarkBatchNetworkStep(b *testing.B) {
	for _, width := range []int{2, 4, 8, 12, 16} {
		b.Run(fmt.Sprintf("width-%d", width), benchkit.BatchNetworkStep(width))
	}
}

// BenchmarkNetworkStep measures the scalar thermal RK4 step alone
// (Network.Step, the path a one-lane unit steps on) on each preset's
// network, prewarmed to 50 °C. CI gates both at 0 allocs/op.
func BenchmarkNetworkStep(b *testing.B) {
	for _, preset := range []struct {
		name  string
		build func(int64) *platform.Platform
	}{{"odroid", platform.OdroidXU3}, {"nexus", platform.Nexus6P}} {
		build := preset.build
		b.Run(preset.name, func(b *testing.B) {
			plat := build(benchSeed)
			if err := plat.Prewarm(50); err != nil {
				b.Fatal(err)
			}
			powers := make([]float64, plat.Net.NumNodes())
			for i := range powers {
				powers[i] = 0.25 * float64(i%7)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plat.Net.Step(0.001, powers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLeakageExp measures the power layer's leakage alone:
// staging every domain's exponent, one packed power.ExpInto and the
// per-domain leakage power, at width 1 (three values, one zero-padded
// block), width 2 (six values, one padded block), width 4 (one full
// block and a padded four-value tail) and width 8 (three full 8-lane
// blocks). CI gates every width at 0 allocs/op.
func BenchmarkLeakageExp(b *testing.B) {
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width-%d", width), benchkit.LeakageExp(width))
	}
}

// BenchmarkBatchEngineStepObserved is BenchmarkBatchEngineStep with a
// per-lane sample observer attached, the batched simd daemon's step
// configuration. CI gates it at 0 allocs/op — observer attachment must
// not make the fused step loop allocate.
func BenchmarkBatchEngineStepObserved(b *testing.B) {
	benchkit.BatchEngineStepObserved(8)(b)
}

// --- Micro-benchmarks of the substrate hot paths ---

// BenchmarkStabilityAnalyze measures one fixed-point analysis, the
// operation the governor runs every 100 ms.
func BenchmarkStabilityAnalyze(b *testing.B) {
	p := stability.DefaultOdroidParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.Analyze(3.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStabilityTimeToThreshold measures the transient estimate.
func BenchmarkStabilityTimeToThreshold(b *testing.B) {
	p := stability.DefaultOdroidParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.TimeToThreshold(3.0, 310, 340, 600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStabilityDecide measures the app-aware governor's per-tick
// certified tests on the Odroid preset's lump at 4 W (stable point
// ~69.6 °C): DecideAbove against the 60 °C limit and ProvablyBelow
// from 50 °C over the 30 s horizon — the pair a distant-violation tick
// runs instead of Analyze and TimeToThreshold.
func BenchmarkStabilityDecide(b *testing.B) {
	p, err := platform.OdroidXU3(benchSeed).StabilityParams()
	if err != nil {
		b.Fatal(err)
	}
	fromK, limitK := thermal.ToKelvin(50), thermal.ToKelvin(60)
	above, certain := p.DecideAbove(4, limitK)
	if !above || !certain || !p.ProvablyBelow(4, fromK, limitK, 30) {
		b.Fatal("the benchmark point should be a certified distant violation")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		above, certain = p.DecideAbove(4, limitK)
		if !p.ProvablyBelow(4, fromK, limitK, 30) {
			b.Fatal("proof lost")
		}
	}
	sinkBool = above && certain
}

var sinkBool bool

// BenchmarkAppAwareControl measures one app-aware control tick on a
// running Odroid 3DMark+BML engine, warmed up for 20 s under the
// platform's limit, in each of the governor's regimes. A fresh
// governor gets a limit placed between the sensor temperature T and
// the stable fixed point T_s: imminent (T + 0.15·(T_s − T), crossed
// within the 30 s horizon, so the time-to-limit integration runs every
// tick), distant (T + 0.75·(T_s − T), crossed beyond it) and cool
// (T_s + 5 K, no violation).
//
// Each tick is a real one: before it, the warmed engine is restored
// and steps one 0.1 s control interval, so the tick reads power
// windows that took 100 pushes since the last tick, as in a run. The
// restore allocates, so it runs outside the timer; the steps, which do
// not, run inside it, so that b.N, and the wall time of -benchtime=1s,
// follow the cost of the whole op rather than of the ~1 µs tick
// alone. ns/op reports the tick alone, timed around Control; allocs/op
// covers the steps and the tick. CI gates every regime at 0 allocs/op.
func BenchmarkAppAwareControl(b *testing.B) {
	for _, regime := range []struct {
		name string
		frac float64 // limit = T + frac·(T_s − T); 0 means T_s + 5 K
	}{{"imminent", 0.15}, {"distant", 0.75}, {"cool", 0}} {
		b.Run(regime.name, func(b *testing.B) {
			eng, _ := odroidBMLScenarioRec(b, appaware.Config{HorizonS: 30, IntervalS: 0.1}, true, true)
			if err := eng.Run(20); err != nil {
				b.Fatal(err)
			}
			warm, err := eng.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			p, err := eng.Platform().StabilityParams()
			if err != nil {
				b.Fatal(err)
			}
			pd, tempK := eng.DynamicPowerW(), eng.SensorTempK()
			an, err := p.Analyze(pd)
			if err != nil || an.Class != stability.Stable || an.StableTempK <= tempK {
				b.Fatalf("warmed engine should be heating toward a stable point: %+v, sensor %v K, %v", an, tempK, err)
			}
			limitK := an.StableTempK + 5
			if regime.frac != 0 {
				limitK = tempK + regime.frac*(an.StableTempK-tempK)
			}
			gov, err := appaware.New(appaware.Config{HorizonS: 30, IntervalS: 0.1, ThermalLimitK: limitK})
			if err != nil {
				b.Fatal(err)
			}
			steps := int(math.Round(0.1 / eng.StepS()))
			interval := func() {
				b.StopTimer()
				if err := eng.Restore(warm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.RunSteps(steps); err != nil {
					b.Fatal(err)
				}
			}
			// Every tick reads the same state, so one checked tick shows
			// the regime of all.
			interval()
			pd, tempK = eng.DynamicPowerW(), eng.SensorTempK()
			an, errA := p.Analyze(pd)
			tta, errT := p.TimeToThreshold(pd, tempK, limitK, 30)
			got := "cool"
			if an.StableTempK > limitK {
				got = "distant"
				if tta <= 30 {
					got = "imminent"
				}
			}
			if errA != nil || errT != nil || got != regime.name {
				b.Fatalf("limit %v K puts the tick in the %s regime, not %s: fixed point %v K, time to limit %v s, %v, %v",
					limitK, got, regime.name, an.StableTempK, tta, errA, errT)
			}
			gov.Control(eng.Now(), eng) // caches the stability params before timing
			var tickNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				interval()
				start := time.Now()
				gov.Control(eng.Now(), eng)
				tickNs += time.Since(start).Nanoseconds()
			}
			b.ReportMetric(float64(tickNs)/float64(b.N), "ns/op")
		})
	}
}

// BenchmarkSchedulerAssign measures one scheduling step with a
// realistic task mix, through the reusable Assignment the engine steps
// with. CI gates it at 0 allocs/op.
func BenchmarkSchedulerAssign(b *testing.B) {
	s := sched.New()
	for pid := 1; pid <= 8; pid++ {
		cl := sched.Little
		if pid%2 == 0 {
			cl = sched.Big
		}
		if err := s.Add(sched.Task{PID: pid, Name: "t", DemandHz: float64(pid) * 1e8, Threads: 2, Cluster: cl}); err != nil {
			b.Fatal(err)
		}
	}
	little := sched.Capacity{FreqHz: 1400e6, Cores: 4}
	big := sched.Capacity{FreqHz: 2000e6, Cores: 4}
	var a sched.Assignment
	if err := s.AssignInto(little, big, &a); err != nil { // lays out a
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AssignInto(little, big, &a); err != nil {
			b.Fatal(err)
		}
	}
}

// fullWindow returns a window of capacity samples that has turned
// twice, so its run storage has reached its steady size.
func fullWindow(capacity int, sample func(i int) float64) *stats.Window {
	w := stats.NewWindow(capacity)
	for i := 0; i < 2*capacity; i++ {
		w.Push(sample(i))
	}
	return w
}

// BenchmarkWindowPush measures one push into a full 1 s power window
// (1000 samples at the default 1 ms step): steady input, the engine's
// common case, extends one run, and input that changes every push
// starts a run per push. CI gates both at 0 allocs/op.
func BenchmarkWindowPush(b *testing.B) {
	for _, tc := range []struct {
		name   string
		sample func(i int) float64
	}{
		{"steady", func(int) float64 { return 1.25 }},
		{"alternating", func(i int) float64 { return float64(i % 2) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := fullWindow(1000, tc.sample)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Push(tc.sample(i))
			}
		})
	}
}

// BenchmarkWindowMean measures a push followed by the window mean, as
// an app-aware tick reads it: memo pushes the evicted sample's bits
// again, so the memoized sum serves, and fresh alternates two values
// in a window of odd capacity, so every push evicts other bits and the
// mean sums all 999 one-sample runs. CI gates both at 0 allocs/op.
func BenchmarkWindowMean(b *testing.B) {
	for _, tc := range []struct {
		name     string
		capacity int
		sample   func(i int) float64
	}{
		{"memo", 1000, func(int) float64 { return 1.25 }},
		{"fresh", 999, func(i int) float64 { return float64(i % 2) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w := fullWindow(tc.capacity, tc.sample)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Push(tc.sample(i))
				if _, err := w.Mean(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGovernorDecide measures one interactive-governor decision.
func BenchmarkGovernorDecide(b *testing.B) {
	g, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		b.Fatal(err)
	}
	d, err := dvfs.NewDomain("big", frozen.CortexA15Table(), 0)
	if err != nil {
		b.Fatal(err)
	}
	in := governor.Input{NowS: 1, UtilCores: 2.5, MaxCoreLoad: 0.9, OnlineCores: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Decide(in, d)
	}
}

// BenchmarkEngineStep measures whole-simulator throughput: simulated
// milliseconds per wall second on the full Odroid scenario.
func BenchmarkEngineStep(b *testing.B) {
	eng, _ := odroidBMLScenario(b, appaware.Config{HorizonS: 30, IntervalS: 0.1}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Run(0.001); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStepNoRecording is BenchmarkEngineStep with the
// built-in recording sink disabled — the sweep pool's constant-memory
// configuration, and the exact target of the zero-alloc invariant
// (recording adds amortized trace-series appends on the trace period).
// CI gates this and BenchmarkEngineStep at 0 allocs/op.
func BenchmarkEngineStepNoRecording(b *testing.B) {
	eng, _ := odroidBMLScenarioRec(b, appaware.Config{HorizonS: 30, IntervalS: 0.1}, true, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunSteps(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBMLIteration measures the real basicmath kernel cost.
func BenchmarkBMLIteration(b *testing.B) {
	var w struct{ workload.BML }
	w.ExecuteRatio = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Advance(float64(i)*0.001, 0.001, workload.Resources{CPUSpeedHz: 4.5e8})
	}
	if w.Checksum() == 0 {
		b.Fatal("kernels did not run")
	}
}

func fmtSeconds(s float64) string {
	switch {
	case s >= 1:
		return "period-" + itoa(int(s)) + "s"
	default:
		return "period-" + itoa(int(s*1000)) + "ms"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
