package mobisim

import (
	"testing"

	"repro/internal/appaware"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// The tests in this file pin the acceptance criterion of the facade
// refactor: a run driven through pkg/mobisim must reproduce the same
// metrics as the pre-refactor hand-rolled wiring, bitwise. The
// "frozen" helpers below are literal copies of the wiring that used to
// live in internal/experiments (RunNexusApp and its scenario runner)
// before it was ported onto this facade; they must never be updated to
// track production code.

func frozenNexusGovernors(t *testing.T) map[platform.DomainID]governor.Governor {
	t.Helper()
	bigGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	littleGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	gpuGov, err := governor.NewInteractive(governor.InteractiveConfig{
		TargetLoad:         0.90,
		HispeedFreqHz:      510e6,
		AboveHispeedDelayS: 1.0,
		BoostHoldS:         0.05,
		IntervalS:          0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[platform.DomainID]governor.Governor{
		platform.DomLittle: littleGov,
		platform.DomBig:    bigGov,
		platform.DomGPU:    gpuGov,
	}
}

// frozenNexusRun is the pre-refactor RunNexusApp wiring: foreground on
// the big cluster, an OS background task on the little cluster, the
// step-wise trip governor when throttling, thermgov.None otherwise.
func frozenNexusRun(t *testing.T, app string, throttle bool, durationS float64, seed int64) (*sim.Engine, *workload.FrameApp) {
	t.Helper()
	var fg *workload.FrameApp
	switch app {
	case "paper.io":
		fg = workload.PaperIO(seed)
	case "stickman-hook":
		fg = workload.StickmanHook(seed)
	default:
		t.Fatalf("frozen wiring only knows paper.io and stickman-hook, not %q", app)
	}
	plat := platform.Nexus6P(seed)
	var tg thermgov.Governor = thermgov.None{}
	if throttle {
		var err error
		tg, err = thermgov.NewStepWise(thermgov.StepWiseConfig{
			TripK:       273.15 + 44,
			HysteresisK: 1,
			CriticalK:   273.15 + 95,
			IntervalS:   0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	osBG := workload.MustFrameApp(workload.FrameAppConfig{
		Name: "android-os",
		Phases: []workload.Phase{
			{DurationS: 60, CPUCyclesPerFrame: 4e6, TargetFPS: 30, TouchRatePerS: 0},
		},
		Loop: true,
		Seed: seed + 1,
	})
	eng, err := sim.New(sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: fg, PID: 1, Cluster: sched.Big, Threads: 2},
			{App: osBG, PID: 2, Cluster: sched.Little, Threads: 1},
		},
		Governors: frozenNexusGovernors(t),
		Thermal:   tg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.Prewarm(36); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(durationS); err != nil {
		t.Fatal(err)
	}
	return eng, fg
}

// frozenOdroidAppAwareRun is the pre-refactor scenario-runner wiring
// for the odroid-xu3 / 3dmark+bml / appaware arm with model-only BML.
func frozenOdroidAppAwareRun(t *testing.T, limitC, durationS float64, seed int64) (*sim.Engine, *workload.ThreeDMark, *workload.BML, *appaware.Governor) {
	t.Helper()
	plat := platform.OdroidXU3(seed)
	bench := workload.NewThreeDMark(seed)
	bml := workload.NewBML()
	bml.ExecuteRatio = 0

	acfg := appaware.Config{HorizonS: 30, IntervalS: 0.1}
	if limitC != 0 {
		acfg.ThermalLimitK = thermal.ToKelvin(limitC)
	}
	ctrl, err := appaware.New(acfg)
	if err != nil {
		t.Fatal(err)
	}
	bigGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	littleGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	gpuGov, err := governor.NewOndemand(governor.DefaultOndemandConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: bench, PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: littleGov,
			platform.DomBig:    bigGov,
			platform.DomGPU:    gpuGov,
		},
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.Prewarm(50); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(durationS); err != nil {
		t.Fatal(err)
	}
	return eng, bench, bml, ctrl
}

func TestFacadeReproducesNexusPreRefactorMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const durationS, seed = 10, 3
	for _, throttle := range []bool{false, true} {
		gov := GovNone
		if throttle {
			gov = GovStepwise
		}
		eng, err := New(Scenario{
			Platform:  PlatformNexus6P,
			Workload:  "paper.io",
			Governor:  gov,
			DurationS: durationS,
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		got := eng.Metrics()

		ref, refFG := frozenNexusRun(t, "paper.io", throttle, durationS, seed)
		want := map[string]float64{
			MetricPeakC:      thermal.ToCelsius(ref.MaxTempSeenK()),
			MetricAvgPowerW:  ref.Meter().AveragePowerW(),
			MetricMigrations: float64(ref.Scheduler().Migrations()),
			MetricMedianFPS:  refFG.MedianFPS(),
		}
		if len(got) != len(want) {
			t.Fatalf("throttle=%v: metric sets differ:\nfacade: %v\nfrozen: %v", throttle, got, want)
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				t.Errorf("throttle=%v: metric %s = %v via facade, %v via frozen wiring", throttle, name, got[name], w)
			}
		}
	}
}

func TestFacadeReproducesOdroidPreRefactorMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const limitC, durationS, seed = 60, 10, 3
	eng, err := New(Scenario{
		Platform:     PlatformOdroidXU3,
		Workload:     "3dmark+bml",
		Governor:     GovAppAware,
		LimitC:       limitC,
		DurationS:    durationS,
		Seed:         seed,
		ModelOnlyBML: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := eng.Metrics()

	ref, bench, bml, ctrl := frozenOdroidAppAwareRun(t, limitC, durationS, seed)
	want := map[string]float64{
		MetricPeakC:         thermal.ToCelsius(ref.MaxTempSeenK()),
		MetricAvgPowerW:     ref.Meter().AveragePowerW(),
		MetricMigrations:    float64(ctrl.Migrations()),
		MetricGT1FPS:        bench.GT1FPS(),
		MetricGT2FPS:        bench.GT2FPS(),
		MetricBMLIterations: float64(bml.Iterations()),
	}
	if len(got) != len(want) {
		t.Fatalf("metric sets differ:\nfacade: %v\nfrozen: %v", got, want)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("metric %s = %v via facade, %v via frozen wiring", name, got[name], w)
		}
	}
}

func TestNewRejectsBadSpecsAndOptions(t *testing.T) {
	bad := []Scenario{
		{Platform: "pixel9", Workload: "3dmark", Governor: GovNone, DurationS: 1, Seed: 1},
		{Platform: PlatformOdroidXU3, Workload: "quake", Governor: GovNone, DurationS: 1, Seed: 1},
		{Platform: PlatformOdroidXU3, Workload: "3dmark", Governor: "psychic", DurationS: 1, Seed: 1},
		{Platform: PlatformOdroidXU3, Workload: "3dmark", Governor: GovNone, Seed: 1},
		{Platform: PlatformOdroidXU3, Workload: "3dmark", Governor: GovStepwise, DurationS: 1, Seed: 1},
		{Platform: PlatformNexus6P, Workload: "paper.io", Governor: GovIPA, DurationS: 1, Seed: 1},
		{Platform: PlatformNexus6P, Workload: "paper.io", CPUGovernor: "warp", DurationS: 1, Seed: 1},
		{Platform: PlatformNexus6P, Workload: "paper.io", DurationS: 1, Seed: 1, StepS: -1},
		{Platform: PlatformNexus6P, Workload: "paper.io", DurationS: 1, Seed: 1, StepS: MinStepS / 2},
	}
	for _, spec := range bad {
		if _, err := New(spec); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		}
	}
	good := Scenario{Platform: PlatformNexus6P, Workload: "paper.io", DurationS: 1, Seed: 1}
	if _, err := New(good, WithObserver(nil)); err == nil {
		t.Error("WithObserver(nil) should be rejected")
	}
}

func TestSeriesLookupsReportOK(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	spec := Scenario{Platform: PlatformNexus6P, Workload: "paper.io", Governor: GovNone, DurationS: 1, Seed: 1}
	eng, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s, ok := eng.NodeTempSeries("pkg"); !ok || s.Len() == 0 {
		t.Errorf("pkg node series missing (ok=%v)", ok)
	}
	if _, ok := eng.NodeTempSeries("volcano"); ok {
		t.Error("unknown node name should report ok=false")
	}
	if _, ok := eng.RailPowerSeries(Rail(99)); ok {
		t.Error("unknown rail should report ok=false")
	}
	if s, ok := eng.MaxTempSeries(); !ok || s.Len() == 0 {
		t.Errorf("max temp series missing (ok=%v)", ok)
	}

	bare, err := New(spec, WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare.MaxTempSeries(); ok {
		t.Error("recording disabled: series lookups should report ok=false")
	}
	if _, ok := bare.NodeTempSeries("pkg"); ok {
		t.Error("recording disabled: node lookups should report ok=false")
	}
}
