package sim_test

// Steady-state allocation regression tests for the flattened hot path.
// CI's benchmark smoke additionally gates BenchmarkEngineStep at
// 0 allocs/op; this test enforces the stronger invariant under plain
// `go test`, where a regression pinpoints the step loop directly.

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// newSteadyEngine builds the odroid 3dmark+bml scenario under IPA with
// recording disabled — the sweep pool's constant-memory configuration.
func newSteadyEngine(t *testing.T) *sim.Engine {
	t.Helper()
	plat := platform.OdroidXU3(1)
	bml := workload.NewBML()
	bml.ExecuteRatio = 0
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
	ipa, err := thermgov.NewIPA(ipaConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: workload.NewThreeDMark(1), PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: littleGov,
			platform.DomBig:    bigGov,
			platform.DomGPU:    gpuGov,
		},
		Thermal:          ipa,
		DisableRecording: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.Prewarm(50); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStepZeroAllocSteadyState asserts the tentpole invariant: once
// warmed up, the full step path — demand, governors, IPA thermal
// control, scheduling, power, RK4 integration, sampling — performs zero
// allocations per step. The only tolerated residual is the workload
// layer's once-per-simulated-second FPS bucket append, which the
// 0.01 allocs/step budget admits while still catching any real per-step
// allocation (the pre-refactor loop ran at ~15 allocs/step).
func TestStepZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation warm-up")
	}
	eng := newSteadyEngine(t)
	// Warm up past sensor, governor and window start-up transients.
	if err := eng.Run(2.0); err != nil {
		t.Fatal(err)
	}
	const runs, stepsPerRun = 100, 10
	avgPerRun := testing.AllocsPerRun(runs, func() {
		if err := eng.RunSteps(stepsPerRun); err != nil {
			t.Fatal(err)
		}
	})
	if perStep := avgPerRun / stepsPerRun; perStep > 0.01 {
		t.Fatalf("steady-state step loop allocates: %.3f allocs/step (want ~0)", perStep)
	}
}

// TestBatchStepZeroAllocSteadyState extends the strict gate to the
// batched lockstep path: once warmed up, a fused step across four
// lanes — per-lane pre/post phases plus the shared SoA thermal kernel
// — must perform zero allocations, with the same sub-1%-of-a-step
// budget for the workload layer's amortized FPS bucket appends.
func TestBatchStepZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation warm-up")
	}
	const lanes = 4
	engines := make([]*sim.Engine, lanes)
	for i := range engines {
		engines[i] = newSteadyEngine(t)
	}
	be, err := sim.NewBatchEngine(engines)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.RunSteps(2000); err != nil {
		t.Fatal(err)
	}
	const runs, stepsPerRun = 100, 10
	avgPerRun := testing.AllocsPerRun(runs, func() {
		if err := be.RunSteps(stepsPerRun); err != nil {
			t.Fatal(err)
		}
	})
	if perStep := avgPerRun / stepsPerRun; perStep > 0.01*lanes {
		t.Fatalf("steady-state batched step allocates: %.3f allocs/step across %d lanes (want ~0)", perStep, lanes)
	}
}
