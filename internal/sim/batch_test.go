package sim_test

// Differential tests for the batched lockstep path: a lane of a
// BatchEngine must be bitwise-identical to the same engine stepped
// alone through the scalar oracle path, across platforms, thermal
// arms, controllers and batch widths. Combined with the frozen-loop
// differential test (scalar vs the pre-refactor step), this transitively
// pins the batched path to the original implementation.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/appaware"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// batchArm selects the thermal-management wiring of a test engine.
type batchArm int

const (
	armIPA batchArm = iota
	armStepwise
	armAppAware
	armNone
)

// ipaConfig is an IPA configuration sized for the Odroid-class
// platform models.
func ipaConfig() thermgov.IPAConfig {
	return thermgov.IPAConfig{
		ControlTempK:      273.15 + 70,
		SustainablePowerW: 2.5,
		KPo:               0.4,
		KPu:               0.8,
		KI:                0.02,
		IntegralClampW:    1.0,
		IntervalS:         0.1,
	}
}

// buildBatchTestEngine assembles one odroid, nexus or tricluster
// scenario for the given seed and arm, mirroring the sweeps'
// constant-memory setup but with recording enabled so traces can be
// compared. The platform is prewarmed to 50 °C.
func buildBatchTestEngine(t *testing.T, platName string, seed int64, arm batchArm) *sim.Engine {
	t.Helper()
	return newTestEngine(t, batchTestConfig(t, platName, seed, arm))
}

// newTestEngine builds cfg and prewarms its platform to 50 °C.
func newTestEngine(t *testing.T, cfg sim.Config) *sim.Engine {
	t.Helper()
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Platform.Prewarm(50); err != nil {
		t.Fatal(err)
	}
	return eng
}

// batchTestConfig is buildBatchTestEngine's config, for tests that
// adjust it before building.
func batchTestConfig(t *testing.T, platName string, seed int64, arm batchArm) sim.Config {
	t.Helper()
	var plat *platform.Platform
	switch platName {
	case "odroid":
		plat = platform.OdroidXU3(seed)
	case "nexus":
		plat = platform.Nexus6P(seed)
	case "tricluster":
		spec, err := platform.LoadSpecFile("../../testdata/platforms/tricluster.json")
		if err != nil {
			t.Fatal(err)
		}
		if plat, err = spec.Compile(seed); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown platform %q", platName)
	}
	bml := workload.NewBML()
	bml.ExecuteRatio = 0
	newGov := func() governor.Governor {
		g, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gpuGov, err := governor.NewOndemand(governor.DefaultOndemandConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: workload.NewThreeDMark(seed), PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: newGov(),
			platform.DomBig:    newGov(),
			platform.DomGPU:    gpuGov,
		},
	}
	switch arm {
	case armIPA:
		tg, err := thermgov.NewIPA(ipaConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Thermal = tg
	case armStepwise:
		tg, err := thermgov.NewStepWise(thermgov.StepWiseConfig{
			TripK: 273.15 + 44, HysteresisK: 1, CriticalK: 273.15 + 95, IntervalS: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Thermal = tg
	case armAppAware:
		g, err := appaware.New(appaware.Config{HorizonS: 30, IntervalS: 0.1, ThermalLimitK: 273.15 + 55})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Controller = g
	case armNone:
		cfg.Thermal = thermgov.None{}
	}
	return cfg
}

// compareLane asserts a batched lane ended bitwise-identical to its
// scalar twin.
func compareLane(t *testing.T, name string, scalar, batched *sim.Engine) {
	t.Helper()
	if scalar.Now() != batched.Now() {
		t.Fatalf("%s: time diverged: %v vs %v", name, scalar.Now(), batched.Now())
	}
	if math.Float64bits(scalar.MaxTempSeenK()) != math.Float64bits(batched.MaxTempSeenK()) {
		t.Errorf("%s: MaxTempSeenK differs bitwise: %v vs %v", name, scalar.MaxTempSeenK(), batched.MaxTempSeenK())
	}
	if scalar.Meter().TotalEnergyJ() != batched.Meter().TotalEnergyJ() {
		t.Errorf("%s: total energy differs: %v vs %v", name, scalar.Meter().TotalEnergyJ(), batched.Meter().TotalEnergyJ())
	}
	sv, bv := scalar.Recording().MaxTempSeries().Values(), batched.Recording().MaxTempSeries().Values()
	if len(sv) != len(bv) || len(sv) == 0 {
		t.Fatalf("%s: trace lengths differ or empty: %d vs %d", name, len(sv), len(bv))
	}
	for i := range sv {
		if math.Float64bits(sv[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("%s: max-temp sample %d differs bitwise: %v vs %v", name, i, sv[i], bv[i])
		}
	}
	for _, id := range platform.DomainIDs() {
		ss, sok := scalar.Recording().FreqSeries(id)
		bs, bok := batched.Recording().FreqSeries(id)
		if !sok || !bok {
			t.Fatalf("%s: no freq trace for %s", name, id)
		}
		fs, fb := ss.Values(), bs.Values()
		if len(fs) != len(fb) {
			t.Fatalf("%s: freq trace %s lengths differ", name, id)
		}
		for i := range fs {
			if fs[i] != fb[i] {
				t.Fatalf("%s: freq %s sample %d differs: %v vs %v", name, id, i, fs[i], fb[i])
			}
		}
	}
}

// TestBatchMatchesScalar is the batched path's oracle test: lanes with
// distinct seeds and thermal arms, stepped in lockstep, must match
// solo scalar runs bitwise. The widths cover the single-lane batch,
// half kernel blocks (2, 3, 4), a partial block that runs whole (7), a
// half block after a full one (9) and two full blocks (16), on all
// three topologies the sweep benchmark runs.
func TestBatchMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	const durationS = 3
	steps := int(durationS * 1000)
	type batchCase struct {
		name  string
		plat  string
		arms  []batchArm
		steps int
	}
	cases := []batchCase{
		{"odroid-ipa-appaware-none", "odroid", []batchArm{armIPA, armAppAware, armNone}, steps},
		{"odroid-width4", "odroid", []batchArm{armAppAware, armAppAware, armIPA, armNone}, steps},
		{"nexus-stepwise-none", "nexus", []batchArm{armStepwise, armNone}, steps},
		{"odroid-width1", "odroid", []batchArm{armAppAware}, steps},
	}
	allArms := []batchArm{armIPA, armStepwise, armAppAware, armNone}
	for _, plat := range []string{"odroid", "nexus", "tricluster"} {
		for _, width := range []int{2, 4, 7, 9, 16} {
			arms := make([]batchArm, width)
			for i := range arms {
				arms[i] = allArms[(i+width)%len(allArms)]
			}
			cases = append(cases, batchCase{fmt.Sprintf("%s-lanes%d", plat, width), plat, arms, 1500})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scalars := make([]*sim.Engine, len(tc.arms))
			lanes := make([]*sim.Engine, len(tc.arms))
			for i, arm := range tc.arms {
				seed := int64(10 + i)
				scalars[i] = buildBatchTestEngine(t, tc.plat, seed, arm)
				lanes[i] = buildBatchTestEngine(t, tc.plat, seed, arm)
			}
			for _, e := range scalars {
				if err := e.RunSteps(tc.steps); err != nil {
					t.Fatal(err)
				}
			}
			be, err := sim.NewBatchEngine(lanes)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.RunSteps(tc.steps); err != nil {
				t.Fatal(err)
			}
			for i := range lanes {
				compareLane(t, tc.name, scalars[i], lanes[i])
			}
		})
	}
}

// TestBatchEngineReset pins the pooling contract: a BatchEngine shell
// recycled onto fresh lanes (same or different platform) behaves
// exactly like a newly constructed one.
func TestBatchEngineReset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	const steps = 1500
	run := func(be *sim.BatchEngine) {
		t.Helper()
		if err := be.RunSteps(steps); err != nil {
			t.Fatal(err)
		}
	}

	scalar := buildBatchTestEngine(t, "nexus", 7, armStepwise)
	if err := scalar.RunSteps(steps); err != nil {
		t.Fatal(err)
	}

	var pool sim.BatchPool
	first, err := pool.Get([]*sim.Engine{
		buildBatchTestEngine(t, "odroid", 1, armIPA),
		buildBatchTestEngine(t, "odroid", 2, armNone),
	})
	if err != nil {
		t.Fatal(err)
	}
	run(first)
	pool.Put(first)

	// Recycle the shell onto a different platform topology and width.
	lane := buildBatchTestEngine(t, "nexus", 7, armStepwise)
	second, err := pool.Get([]*sim.Engine{lane})
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("expected the pooled shell to be reused")
	}
	run(second)
	pool.Put(second)
	compareLane(t, "recycled-nexus", scalar, lane)
}

// TestBatchRejectsMixedTopology ensures lanes from different platform
// topologies cannot be fused.
func TestBatchRejectsMixedTopology(t *testing.T) {
	a := buildBatchTestEngine(t, "odroid", 1, armNone)
	b := buildBatchTestEngine(t, "nexus", 1, armNone)
	if _, err := sim.NewBatchEngine([]*sim.Engine{a, b}); err == nil {
		t.Fatal("mixed-topology batch should be rejected")
	}
}

// TestStepsToControllerTick pins the tick countdown the warm-start
// sentinel paces its checkpoints by: the appaware controller ticks on
// the first step and then every 100 steps (0.1 s at 1 ms), and an
// engine without a controller reports -1.
func TestStepsToControllerTick(t *testing.T) {
	e := buildBatchTestEngine(t, "odroid", 1, armAppAware)
	for _, tc := range []struct{ run, want int }{{0, 0}, {1, 99}, {98, 1}, {1, 0}, {1, 99}} {
		if err := e.RunSteps(tc.run); err != nil {
			t.Fatal(err)
		}
		if got := e.StepsToControllerTick(); got != tc.want {
			t.Fatalf("after %d more steps (t=%v): StepsToControllerTick = %d, want %d", tc.run, e.Now(), got, tc.want)
		}
	}
	if got := buildBatchTestEngine(t, "odroid", 1, armIPA).StepsToControllerTick(); got != -1 {
		t.Errorf("engine without a controller: StepsToControllerTick = %d, want -1", got)
	}
}

// TestBatchEngineRunValidates covers BatchEngine's argument checks and
// pins that a batch lane run for StepsFor's step count matches
// Engine.Run over the same duration.
func TestBatchEngineRunValidates(t *testing.T) {
	if _, err := sim.NewBatchEngine(nil); err == nil {
		t.Error("empty batch should be rejected")
	}
	coarse := batchTestConfig(t, "odroid", 2, armNone)
	coarse.StepS = 0.002
	mixed := []*sim.Engine{buildBatchTestEngine(t, "odroid", 1, armNone), newTestEngine(t, coarse)}
	if _, err := sim.NewBatchEngine(mixed); err == nil {
		t.Error("lanes with different step sizes should be rejected")
	}

	lanes := []*sim.Engine{buildBatchTestEngine(t, "odroid", 1, armIPA), buildBatchTestEngine(t, "odroid", 2, armNone)}
	be, err := sim.NewBatchEngine(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.RunSteps(-1); err == nil {
		t.Error("negative step count should be rejected")
	}
	solo := buildBatchTestEngine(t, "odroid", 1, armIPA)
	if err := solo.Run(0.25); err != nil {
		t.Fatal(err)
	}
	steps, err := sim.StepsFor(0.25, lanes[0].StepS())
	if err != nil {
		t.Fatal(err)
	}
	if err := be.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	compareLane(t, "run", solo, lanes[0])
}
