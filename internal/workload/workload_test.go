package workload

import (
	"math"
	"testing"

	"repro/internal/mibench"
)

func TestFrameAppValidation(t *testing.T) {
	base := Phase{DurationS: 1, CPUCyclesPerFrame: 1e6, GPUCyclesPerFrame: 1e6, TargetFPS: 60}
	cases := []struct {
		name string
		cfg  FrameAppConfig
	}{
		{"no phases", FrameAppConfig{Name: "x"}},
		{"zero duration", FrameAppConfig{Name: "x", Phases: []Phase{{TargetFPS: 60}}}},
		{"negative cpu", FrameAppConfig{Name: "x", Phases: []Phase{{DurationS: 1, CPUCyclesPerFrame: -1, TargetFPS: 60}}}},
		{"zero fps", FrameAppConfig{Name: "x", Phases: []Phase{{DurationS: 1}}}},
		{"negative touch", FrameAppConfig{Name: "x", Phases: []Phase{{DurationS: 1, TargetFPS: 60, TouchRatePerS: -1}}}},
		{"sigma without period", FrameAppConfig{Name: "x", Phases: []Phase{base}, SceneSigma: 0.2}},
		{"negative sigma", FrameAppConfig{Name: "x", Phases: []Phase{base}, SceneSigma: -0.2, ScenePeriodS: 1}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewFrameApp(tt.cfg); err == nil {
				t.Errorf("config %+v should be rejected", tt.cfg)
			}
		})
	}
}

func TestMustFrameAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustFrameApp(FrameAppConfig{Name: "bad"})
}

func simpleApp(t *testing.T, target float64) *FrameApp {
	t.Helper()
	a, err := NewFrameApp(FrameAppConfig{
		Name:   "simple",
		Phases: []Phase{{DurationS: 1000, CPUCyclesPerFrame: 1e6, GPUCyclesPerFrame: 2e6, TargetFPS: target}},
		Loop:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFrameAppDemandMatchesPhase(t *testing.T) {
	a := simpleApp(t, 60)
	d := a.Demand(0)
	if math.Abs(d.CPUHz-60e6) > 1 {
		t.Errorf("cpu demand = %v, want 60e6", d.CPUHz)
	}
	if math.Abs(d.GPUHz-120e6) > 1 {
		t.Errorf("gpu demand = %v, want 120e6", d.GPUHz)
	}
}

// Giving exactly the demanded resources yields the target frame rate.
func TestFrameAppHitsTargetWithFullResources(t *testing.T) {
	a := simpleApp(t, 60)
	r := Resources{CPUSpeedHz: 60e6, GPUSpeedHz: 120e6}
	for now := 0.0; now < 10; now += 0.01 {
		a.Demand(now)
		a.Advance(now, 0.01, r)
	}
	if m := a.MedianFPS(); math.Abs(m-60) > 0.5 {
		t.Errorf("median FPS = %v, want ~60", m)
	}
	if f := a.frames; math.Abs(f-600) > 5 {
		t.Errorf("frames = %v, want ~600", f)
	}
}

// Halving the GPU grant halves the frame rate (GPU-bound app).
func TestFrameAppGPUBoundScaling(t *testing.T) {
	a := simpleApp(t, 60)
	r := Resources{CPUSpeedHz: 60e6, GPUSpeedHz: 60e6} // half the GPU need
	for now := 0.0; now < 10; now += 0.01 {
		a.Demand(now)
		a.Advance(now, 0.01, r)
	}
	if m := a.MedianFPS(); math.Abs(m-30) > 0.5 {
		t.Errorf("median FPS = %v, want ~30 (GPU bound)", m)
	}
}

// The slower stage limits the pipeline.
func TestFrameAppSlowestStageWins(t *testing.T) {
	a := simpleApp(t, 60)
	r := Resources{CPUSpeedHz: 20e6, GPUSpeedHz: 1e9} // CPU allows 20 FPS
	for now := 0.0; now < 5; now += 0.01 {
		a.Demand(now)
		a.Advance(now, 0.01, r)
	}
	if m := a.MedianFPS(); math.Abs(m-20) > 0.5 {
		t.Errorf("median FPS = %v, want ~20 (CPU bound)", m)
	}
}

func TestFrameAppZeroResourcesZeroFPS(t *testing.T) {
	a := simpleApp(t, 60)
	for now := 0.0; now < 3; now += 0.01 {
		a.Demand(now)
		a.Advance(now, 0.01, Resources{})
	}
	if m := a.MedianFPS(); m != 0 {
		t.Errorf("median FPS = %v, want 0", m)
	}
}

func TestFrameAppPhaseProgressionAndLoop(t *testing.T) {
	a, err := NewFrameApp(FrameAppConfig{
		Name: "two-phase",
		Phases: []Phase{
			{DurationS: 1, CPUCyclesPerFrame: 1e6, TargetFPS: 10},
			{DurationS: 1, CPUCyclesPerFrame: 2e6, TargetFPS: 10},
		},
		Loop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d0 := a.Demand(0.5)
	d1 := a.Demand(1.5)
	d2 := a.Demand(2.5) // back to phase 0
	if d0.CPUHz != 10e6 || d1.CPUHz != 20e6 || d2.CPUHz != 10e6 {
		t.Errorf("phase demands = %v %v %v", d0.CPUHz, d1.CPUHz, d2.CPUHz)
	}
}

func TestFrameAppNonLoopingFinishes(t *testing.T) {
	a, err := NewFrameApp(FrameAppConfig{
		Name:   "oneshot",
		Phases: []Phase{{DurationS: 2, CPUCyclesPerFrame: 1e6, TargetFPS: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.done {
		t.Fatal("should not be done at start")
	}
	d := a.Demand(3)
	if !a.done {
		t.Error("should be done after script ends")
	}
	if d.CPUHz != 0 || d.GPUHz != 0 {
		t.Errorf("done app demand = %+v, want zero", d)
	}
}

func TestFrameAppSceneVariationDeterministic(t *testing.T) {
	run := func(seed int64) float64 {
		a := MustFrameApp(FrameAppConfig{
			Name:         "v",
			Phases:       []Phase{{DurationS: 100, CPUCyclesPerFrame: 1e6, TargetFPS: 60}},
			Loop:         true,
			SceneSigma:   0.3,
			ScenePeriodS: 0.5,
			Seed:         seed,
		})
		sum := 0.0
		for now := 0.0; now < 20; now += 0.01 {
			sum += a.Demand(now).CPUHz
		}
		return sum
	}
	if run(42) != run(42) {
		t.Error("same seed must reproduce demands")
	}
	if run(42) == run(43) {
		t.Error("different seeds should differ")
	}
}

func TestFrameAppSceneMultiplierBounded(t *testing.T) {
	a := MustFrameApp(FrameAppConfig{
		Name:         "v",
		Phases:       []Phase{{DurationS: 100, CPUCyclesPerFrame: 1e6, TargetFPS: 60}},
		Loop:         true,
		SceneSigma:   1.5, // extreme sigma; clamp must hold
		ScenePeriodS: 0.1,
		Seed:         7,
	})
	for now := 0.0; now < 30; now += 0.05 {
		d := a.Demand(now)
		if d.CPUHz < 0.5*60e6-1 || d.CPUHz > 2.0*60e6+1 {
			t.Fatalf("demand %v outside clamp at t=%v", d.CPUHz, now)
		}
	}
}

func TestFrameAppTouchEventsOccur(t *testing.T) {
	a := MustFrameApp(FrameAppConfig{
		Name:   "touchy",
		Phases: []Phase{{DurationS: 1000, CPUCyclesPerFrame: 1e6, TargetFPS: 60, TouchRatePerS: 50}},
		Loop:   true,
		Seed:   1,
	})
	touches := 0
	for now := 0.0; now < 20; now += 0.001 {
		if a.Demand(now).Touch {
			touches++
		}
	}
	if touches == 0 {
		t.Error("expected touch events at 50/s over 20s")
	}
}

func TestPhaseMedianFPSSeparation(t *testing.T) {
	a := MustFrameApp(FrameAppConfig{
		Name: "mark",
		Phases: []Phase{
			{DurationS: 5, GPUCyclesPerFrame: 1e6, TargetFPS: 100},
			{DurationS: 5, GPUCyclesPerFrame: 2e6, TargetFPS: 100},
		},
	})
	r := Resources{CPUSpeedHz: 1e9, GPUSpeedHz: 100e6}
	for now := 0.0; now < 10; now += 0.01 {
		a.Demand(now)
		a.Advance(now, 0.01, r)
	}
	gt1 := a.PhaseMedianFPS(0)
	gt2 := a.PhaseMedianFPS(1)
	if math.Abs(gt1-100) > 2 {
		t.Errorf("phase 0 median = %v, want ~100", gt1)
	}
	if math.Abs(gt2-50) > 2 {
		t.Errorf("phase 1 median = %v, want ~50", gt2)
	}
	if a.PhaseMedianFPS(9) != 0 {
		t.Error("unknown phase should report 0")
	}
}

func TestAndroidAppConstructors(t *testing.T) {
	apps := []App{PaperIO(1), StickmanHook(2), Amazon(3), Hangouts(4), Facebook(5)}
	names := map[string]bool{}
	for _, a := range apps {
		if a.Name() == "" {
			t.Error("app with empty name")
		}
		names[a.Name()] = true
		d := a.Demand(0)
		if d.CPUHz < 0 || d.GPUHz < 0 {
			t.Errorf("%s: negative demand", a.Name())
		}
	}
	if len(names) != 5 {
		t.Errorf("expected 5 distinct apps, got %v", names)
	}
}

func TestGamesAreGPUDominated(t *testing.T) {
	// Sample demand over the looped script; games should ask more GPU
	// than CPU on average, Amazon the reverse (Section III-B).
	avg := func(a App) (cpu, gpu float64) {
		n := 0
		for now := 0.0; now < 60; now += 0.05 {
			d := a.Demand(now)
			cpu += d.CPUHz
			gpu += d.GPUHz
			n++
		}
		return cpu / float64(n), gpu / float64(n)
	}
	cpu, gpu := avg(PaperIO(1))
	if gpu <= cpu {
		t.Errorf("paper.io should be GPU dominated: cpu=%v gpu=%v", cpu, gpu)
	}
	cpu, gpu = avg(Amazon(1))
	if cpu <= gpu {
		t.Errorf("amazon should be CPU dominated: cpu=%v gpu=%v", cpu, gpu)
	}
}

func TestThreeDMarkScores(t *testing.T) {
	m := NewThreeDMark(11)
	r := Resources{CPUSpeedHz: 2e9, GPUSpeedHz: 600e6}
	for now := 0.0; now < 220 && !m.done; now += 0.01 {
		m.Demand(now)
		m.Advance(now, 0.01, r)
	}
	gt1, gt2 := m.GT1FPS(), m.GT2FPS()
	if gt1 <= gt2 {
		t.Errorf("GT1 (%v) should outscore GT2 (%v)", gt1, gt2)
	}
	// At a full 600 MHz Mali, GT1 ≈ 600/6.0 = 100 FPS class and
	// GT2 ≈ 600/11.5 = 52 FPS class (before scene variation).
	if gt1 < 80 || gt1 > 120 {
		t.Errorf("GT1 = %v, want ~100", gt1)
	}
	if gt2 < 40 || gt2 > 60 {
		t.Errorf("GT2 = %v, want ~52", gt2)
	}
}

func TestNenamarkValidation(t *testing.T) {
	bad := DefaultNenamarkConfig()
	bad.Levels = 0
	if _, err := NewNenamark(bad); err == nil {
		t.Error("expected error for zero levels")
	}
	bad = DefaultNenamarkConfig()
	bad.LevelFactor = 1.0
	if _, err := NewNenamark(bad); err == nil {
		t.Error("expected error for factor <= 1")
	}
	bad = DefaultNenamarkConfig()
	bad.TargetFPS = 10 // below threshold
	if _, err := NewNenamark(bad); err == nil {
		t.Error("expected error for target below threshold")
	}
	if _, err := NewNenamark(DefaultNenamarkConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// Run nenamark under a fixed GPU grant and return its score.
func runNenamark(t *testing.T, gpuHz float64) *Nenamark {
	t.Helper()
	n, err := NewNenamark(DefaultNenamarkConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := Resources{CPUSpeedHz: 2e9, GPUSpeedHz: gpuHz}
	for now := 0.0; now < 400 && !n.terminated; now += 0.01 {
		n.Demand(now)
		n.Advance(now, 0.01, r)
	}
	return n
}

func TestNenamarkScoreMonotoneInGPUSpeed(t *testing.T) {
	slow := runNenamark(t, 350e6)
	fast := runNenamark(t, 600e6)
	if !(fast.Score() > slow.Score()) {
		t.Errorf("score at 600MHz (%v) should exceed 350MHz (%v)", fast.Score(), slow.Score())
	}
}

func TestNenamarkBaselineScoreNear3p5(t *testing.T) {
	n := runNenamark(t, 600e6)
	// 600e6 / (6e6·1.5^k) per level: L1=100, L2=66, L3=44, L4=29.6 FPS —
	// level 4 fails quickly, so the score lands between 3.0 and 4.0.
	if s := n.Score(); s < 3.0 || s >= 4.0 {
		t.Errorf("baseline score = %v, want in [3.0, 4.0) like the paper's 3.5", s)
	}
	if !n.terminated {
		t.Error("run should have terminated")
	}
}

func TestNenamarkTerminatedDemandIsZero(t *testing.T) {
	n := runNenamark(t, 100e6) // too slow: dies in level 1
	if s := n.Score(); s >= 1 {
		t.Errorf("score at 100MHz = %v, want < 1", s)
	}
	d := n.Demand(999)
	if d.CPUHz != 0 || d.GPUHz != 0 {
		t.Error("terminated benchmark should demand nothing")
	}
}

func TestNenamarkPerfectRunFullScore(t *testing.T) {
	cfg := DefaultNenamarkConfig()
	cfg.Levels = 2
	n, err := NewNenamark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := Resources{CPUSpeedHz: 2e9, GPUSpeedHz: 10e9} // absurdly fast
	for now := 0.0; now < 120 && !n.terminated; now += 0.01 {
		n.Demand(now)
		n.Advance(now, 0.01, r)
	}
	if n.Score() != 2 {
		t.Errorf("perfect score = %v, want 2", n.Score())
	}
}

func TestBMLSaturatesAndComputes(t *testing.T) {
	b := NewBML()
	if b.Name() == "" {
		t.Error("BML needs a name")
	}
	d := b.Demand(0)
	if d.CPUHz < 1e11 {
		t.Errorf("BML demand = %v, should saturate any core", d.CPUHz)
	}
	if d.GPUHz != 0 {
		t.Error("BML must not use the GPU")
	}
	// Run 10 s at 2 GHz (integer step count: a float-accumulated loop
	// condition would run one extra step and skew the cycle total).
	for i := 0; i < 1000; i++ {
		b.Advance(float64(i)*0.01, 0.01, Resources{CPUSpeedHz: 2e9})
	}
	totalCycles := 2e9 * 10.0
	wantIters := uint64(totalCycles / float64(mibench.CyclesPerIteration))
	if got := b.Iterations(); got < wantIters-2 || got > wantIters+2 {
		t.Errorf("modeled iterations = %d, want ~%d", got, wantIters)
	}
	if b.ExecutedIterations() == 0 {
		t.Error("some kernels should actually execute")
	}
	exec := float64(b.ExecutedIterations()) / float64(b.Iterations())
	if exec < 0.0005 || exec > 0.002 {
		t.Errorf("execution ratio = %v, want ~0.001", exec)
	}
	if b.Checksum() == 0 {
		t.Error("checksum should accumulate")
	}
}

func TestBMLZeroSpeedNoWork(t *testing.T) {
	b := NewBML()
	b.Advance(0, 1, Resources{})
	if b.Iterations() != 0 {
		t.Errorf("iterations = %d, want 0", b.Iterations())
	}
}

func TestBMLScalesWithFrequency(t *testing.T) {
	slow, fast := NewBML(), NewBML()
	for now := 0.0; now < 5; now += 0.01 {
		slow.Advance(now, 0.01, Resources{CPUSpeedHz: 0.5e9})
		fast.Advance(now, 0.01, Resources{CPUSpeedHz: 2e9})
	}
	ratio := float64(fast.Iterations()) / float64(slow.Iterations())
	if math.Abs(ratio-4) > 0.05 {
		t.Errorf("4x frequency should give ~4x iterations, got %v", ratio)
	}
}
