package sim

import (
	"math"
	"testing"

	"repro/internal/daq"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// steadyApp is a trivially steady workload for engine tests.
type steadyApp struct {
	name   string
	cpuHz  float64
	gpuHz  float64
	gotCPU float64
	gotGPU float64
	steps  int
}

func (a *steadyApp) Name() string { return a.name }
func (a *steadyApp) Demand(nowS float64) workload.Demand {
	return workload.Demand{CPUHz: a.cpuHz, GPUHz: a.gpuHz}
}
func (a *steadyApp) Advance(nowS, dt float64, r workload.Resources) {
	a.gotCPU += r.CPUSpeedHz * dt
	a.gotGPU += r.GPUSpeedHz * dt
	a.steps++
}

func perfGovernors() map[platform.DomainID]governor.Governor {
	return map[platform.DomainID]governor.Governor{
		platform.DomLittle: governor.Performance{},
		platform.DomBig:    governor.Performance{},
		platform.DomGPU:    governor.Performance{},
	}
}

func baseConfig(apps ...AppSpec) Config {
	return Config{
		Platform:  platform.OdroidXU3(1),
		Apps:      apps,
		Governors: perfGovernors(),
	}
}

func TestNewValidates(t *testing.T) {
	app := AppSpec{App: &steadyApp{name: "a"}, PID: 1, Cluster: sched.Big, Threads: 1}
	cases := []struct {
		name string
		f    func(*Config)
	}{
		{"nil platform", func(c *Config) { c.Platform = nil }},
		{"no apps", func(c *Config) { c.Apps = nil }},
		{"missing governor", func(c *Config) { delete(c.Governors, platform.DomGPU) }},
		{"bad step", func(c *Config) { c.StepS = -1 }},
		{"huge step", func(c *Config) { c.StepS = 1 }},
		{"trace below step", func(c *Config) { c.StepS = 0.01; c.TracePeriodS = 0.001 }},
		{"window below step", func(c *Config) { c.StepS = 0.01; c.TaskWindowS = 0.001 }},
		{"nil app", func(c *Config) { c.Apps = []AppSpec{{PID: 1}} }},
		{"duplicate pid", func(c *Config) { c.Apps = append(c.Apps, c.Apps[0]) }},
	}
	for _, tc := range cases {
		cfg := baseConfig(app)
		tc.f(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New(baseConfig(app)); err != nil {
		t.Errorf("base config should build: %v", err)
	}
}

func TestRunAdvancesTime(t *testing.T) {
	e, err := New(baseConfig(AppSpec{App: &steadyApp{name: "a", cpuHz: 1e9}, PID: 1, Cluster: sched.Big}))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0.5); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Now()-0.5) > 1e-9 {
		t.Errorf("now = %v, want 0.5", e.Now())
	}
	if err := e.Run(-1); err == nil {
		t.Error("negative duration should fail")
	}
}

// TestStepsFor pins the duration-to-step conversion every run path
// shares: nearest-step rounding, and rejection of non-positive,
// non-finite and over-bound durations.
func TestStepsFor(t *testing.T) {
	for _, tc := range []struct {
		durationS, stepS float64
		want             int
	}{
		{0.25, 0.001, 250},
		{0.0104, 0.001, 10},
		{0.0106, 0.001, 11},
		{2, 0.5, 4},
		{1e6, 0.001, 1e9},
	} {
		got, err := StepsFor(tc.durationS, tc.stepS)
		if err != nil || got != tc.want {
			t.Errorf("StepsFor(%v, %v) = %d, %v; want %d", tc.durationS, tc.stepS, got, err, tc.want)
		}
	}
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if _, err := StepsFor(d, 0.001); err == nil {
			t.Errorf("StepsFor(%v, 0.001) should be rejected", d)
		}
	}
}

func TestCPUBoundAppGetsDemand(t *testing.T) {
	app := &steadyApp{name: "a", cpuHz: 1e9}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big, Threads: 1}))
	if err := e.Run(1.0); err != nil {
		t.Fatal(err)
	}
	// Performance governor: big at 2 GHz, demand 1 GHz on one thread —
	// fully granted.
	if math.Abs(app.gotCPU-1e9) > 2e7 {
		t.Errorf("granted CPU cycles = %v, want ~1e9", app.gotCPU)
	}
}

func TestThreadBoundLimitsGrant(t *testing.T) {
	// One thread cannot exceed the core clock even with spare cluster
	// capacity (BML's saturating-one-core behavior).
	app := &steadyApp{name: "bml", cpuHz: 1e12}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big, Threads: 1}))
	if err := e.Run(1.0); err != nil {
		t.Fatal(err)
	}
	want := 2e9 // A15 max clock
	if math.Abs(app.gotCPU-want) > 4e7 {
		t.Errorf("granted = %v, want ~%v (one core at 2 GHz)", app.gotCPU, want)
	}
}

func TestGPUSharingProportional(t *testing.T) {
	heavy := &steadyApp{name: "h", gpuHz: 600e6}
	light := &steadyApp{name: "l", gpuHz: 300e6}
	e, _ := New(baseConfig(
		AppSpec{App: heavy, PID: 1, Cluster: sched.Big},
		AppSpec{App: light, PID: 2, Cluster: sched.Little},
	))
	if err := e.Run(1.0); err != nil {
		t.Fatal(err)
	}
	// Demand 900 MHz total vs 600 MHz capacity: grants scale by 2/3.
	if heavy.gotGPU <= light.gotGPU {
		t.Errorf("heavy %v <= light %v; proportionality violated", heavy.gotGPU, light.gotGPU)
	}
	ratio := heavy.gotGPU / light.gotGPU
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("grant ratio = %v, want ~2", ratio)
	}
	total := heavy.gotGPU + light.gotGPU
	if math.Abs(total-600e6) > 2e7 {
		t.Errorf("total GPU grant = %v, want ~600e6 (saturated)", total)
	}
}

func TestTemperatureRisesUnderLoad(t *testing.T) {
	app := &steadyApp{name: "hot", cpuHz: 8e9, gpuHz: 600e6}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big, Threads: 4}))
	start := e.SensorTempK()
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	end := e.SensorTempK()
	if end-start < 5 {
		t.Errorf("sensor rose only %.2f K in 30 s under full load", end-start)
	}
	if e.MaxTempSeenK() < end-1 {
		t.Errorf("max seen %v below final %v", e.MaxTempSeenK(), end)
	}
}

func TestIdlePlatformStaysCool(t *testing.T) {
	app := &steadyApp{name: "idle"}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Little}))
	// Use powersave so even governor choice is minimal.
	e.cfg.Governors[platform.DomBig] = governor.Powersave{}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	rise := e.SensorTempK() - e.Platform().AmbientK()
	if rise > 8 {
		t.Errorf("idle platform rose %.2f K, want < 8", rise)
	}
}

func TestMeterAccumulatesAllRails(t *testing.T) {
	app := &steadyApp{name: "a", cpuHz: 4e9, gpuHz: 300e6}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big, Threads: 4}))
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	m := e.Meter()
	if m.TotalEnergyJ() <= 0 {
		t.Fatal("no energy recorded")
	}
	shares := m.Shares()
	for _, r := range power.Rails() {
		if shares[r] <= 0 {
			t.Errorf("rail %s has zero energy", r)
		}
	}
	if elapsed := m.TotalEnergyJ() / m.AveragePowerW(); math.Abs(elapsed-2) > 1e-6 {
		t.Errorf("elapsed = %v, want 2", elapsed)
	}
}

func TestTracesRecorded(t *testing.T) {
	app := &steadyApp{name: "a", cpuHz: 1e9, gpuHz: 100e6}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big}))
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	rec := e.Recording()
	if big, ok := rec.NodeTempSeries("big"); !ok || big.Len() != 10 {
		t.Errorf("big temp trace (found %v) has %d points, want 10 (100 ms period over 1 s)", ok, big.Len())
	}
	if rec.SensorSeries().Len() == 0 || rec.TotalPowerSeries().Len() == 0 {
		t.Error("sensor/power traces empty")
	}
	for _, id := range platform.DomainIDs() {
		if len(freqValues(t, e, id)) == 0 {
			t.Errorf("freq trace for %s empty", id)
		}
	}
	if gpu, ok := rec.RailPowerSeries(power.RailGPU); !ok || gpu.Len() == 0 {
		t.Error("gpu rail trace empty")
	}
}

func TestTaskPowerAttribution(t *testing.T) {
	hungry := &steadyApp{name: "hungry", cpuHz: 8e9}
	idle := &steadyApp{name: "idle", cpuHz: 1e7}
	e, _ := New(baseConfig(
		AppSpec{App: hungry, PID: 1, Cluster: sched.Big, Threads: 4},
		AppSpec{App: idle, PID: 2, Cluster: sched.Big, Threads: 1},
	))
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	hp, ip := e.TaskAvgPowerW(1), e.TaskAvgPowerW(2)
	if hp <= ip {
		t.Errorf("hungry power %v <= idle power %v", hp, ip)
	}
	if hp <= 0 {
		t.Error("hungry app should have positive attributed power")
	}
	if e.TaskAvgPowerW(99) != 0 {
		t.Error("unknown PID should report 0")
	}
	all := e.TaskAvgPowers()
	if len(all) != 2 || all[1] != hp {
		t.Errorf("TaskAvgPowers inconsistent: %+v", all)
	}
}

func TestThermalGovernorThrottles(t *testing.T) {
	// A hot workload with a low-trip step-wise governor must end up
	// capped, and cooler than the unthrottled run.
	run := func(gov thermgov.Governor) (float64, uint64) {
		app := &steadyApp{name: "hot", cpuHz: 8e9, gpuHz: 600e6}
		cfg := baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big, Threads: 4})
		cfg.Thermal = gov
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(60); err != nil {
			t.Fatal(err)
		}
		return e.MaxTempSeenK(), e.Platform().Domain(platform.DomBig).Cap()
	}
	sw, err := thermgov.NewStepWise(thermgov.StepWiseConfig{
		TripK: thermal.ToKelvin(45), HysteresisK: 3, IntervalS: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	freeMax, _ := run(thermgov.None{})
	throtMax, cap := run(sw)
	if freeMax <= thermal.ToKelvin(45) {
		t.Fatalf("unthrottled run too cool (%.1f K) for this test to mean anything", freeMax)
	}
	if throtMax >= freeMax-2 {
		t.Errorf("throttled max %.1f K not clearly below free max %.1f K", throtMax, freeMax)
	}
	if cap == 0 {
		t.Error("big domain should be capped at end of throttled run")
	}
}

// migrateController moves PID 1 to little once the sensor exceeds a
// threshold; it exercises the Controller hook.
type migrateController struct {
	thresholdK float64
	migrated   bool
}

func (m *migrateController) Name() string       { return "test-migrate" }
func (m *migrateController) IntervalS() float64 { return 0.1 }
func (m *migrateController) Control(nowS float64, e *Engine) {
	if !m.migrated && e.SensorTempK() > m.thresholdK {
		if err := e.Scheduler().Migrate(1, sched.Little); err == nil {
			m.migrated = true
		}
	}
}

func TestControllerHookRunsAndMigrates(t *testing.T) {
	app := &steadyApp{name: "hot", cpuHz: 8e9}
	cfg := baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big, Threads: 4})
	ctrl := &migrateController{thresholdK: thermal.ToKelvin(45)}
	cfg.Controller = ctrl
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(60); err != nil {
		t.Fatal(err)
	}
	if !ctrl.migrated {
		t.Fatal("controller never migrated; sensor too cool?")
	}
	task, ok := e.Scheduler().TaskRef(1)
	if !ok || task.Cluster != sched.Little {
		t.Errorf("task should be on little after migration, got %+v", task)
	}
	if e.Scheduler().Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", e.Scheduler().Migrations())
	}
}

func TestDAQIntegration(t *testing.T) {
	ch, err := daq.New("total", daq.Config{SampleRateHz: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	app := &steadyApp{name: "a", cpuHz: 2e9}
	cfg := baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big})
	cfg.DAQ = ch
	e, _ := New(cfg)
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if ch.SampleCount() != 1000 {
		t.Errorf("DAQ samples = %d, want 1000", ch.SampleCount())
	}
	if ch.MeanW() <= 0 {
		t.Error("DAQ mean power should be positive")
	}
	// The DAQ mean must agree with the meter's average power.
	if math.Abs(ch.MeanW()-e.Meter().AveragePowerW()) > 0.05 {
		t.Errorf("DAQ mean %v vs meter %v", ch.MeanW(), e.Meter().AveragePowerW())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		app := workload.PaperIO(42)
		cfg := Config{
			Platform: platform.Nexus6P(7),
			Apps:     []AppSpec{{App: app, PID: 1, Cluster: sched.Big, Threads: 2}},
			Governors: map[platform.DomainID]governor.Governor{
				platform.DomLittle: mustInteractive(t),
				platform.DomBig:    mustInteractive(t),
				platform.DomGPU:    mustOndemand(t),
			},
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(5); err != nil {
			t.Fatal(err)
		}
		return e.SensorTempK(), app.MedianFPS()
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Errorf("runs differ: (%v, %v) vs (%v, %v); engine must be deterministic", t1, f1, t2, f2)
	}
}

func mustInteractive(t *testing.T) governor.Governor {
	t.Helper()
	g, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustOndemand(t *testing.T) governor.Governor {
	t.Helper()
	g, err := governor.NewOndemand(governor.DefaultOndemandConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestResidencyAccountedDuringRun(t *testing.T) {
	app := &steadyApp{name: "a", cpuHz: 1e9}
	e, _ := New(baseConfig(AppSpec{App: app, PID: 1, Cluster: sched.Big}))
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	res := e.Platform().Domain(platform.DomBig).ResidencyShare()
	total := 0.0
	for _, s := range res {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("big residency shares sum to %v, want 1 (no residency accounted?)", total)
	}
}
