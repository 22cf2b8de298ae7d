package headroom

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/thermal"
)

func TestProfileValidation(t *testing.T) {
	plat := platform.Nexus6P(1)
	bad := []Profile{
		{},
		{CPUCyclesPerFrame: -1, GPUCyclesPerFrame: 1},
		{CPUCyclesPerFrame: 1, GPUCyclesPerFrame: -1},
		{CPUCyclesPerFrame: 1, Threads: -1},
	}
	for i, pr := range bad {
		if _, err := ForApp(plat, pr, 0); err == nil {
			t.Errorf("case %d (%+v) should fail", i, pr)
		}
	}
	if _, err := ForApp(nil, Profile{CPUCyclesPerFrame: 1}, 0); err == nil {
		t.Error("nil platform should fail")
	}
}

func TestForAppGPUGame(t *testing.T) {
	plat := platform.Nexus6P(1)
	// Paper.io-class profile.
	an, err := ForApp(plat, Profile{
		CPUCyclesPerFrame: 8e6,
		GPUCyclesPerFrame: 13e6,
		Threads:           2,
		OnBig:             true,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The GPU tops out at 600 MHz / 13 M ≈ 46 FPS.
	if math.Abs(an.PeakFPS-600e6/13e6) > 0.01 {
		t.Errorf("peak = %v, want ≈46.2", an.PeakFPS)
	}
	if an.SustainableFPS <= 0 || an.SustainableFPS > an.PeakFPS+1e-9 {
		t.Errorf("sustainable %v outside (0, peak %v]", an.SustainableFPS, an.PeakFPS)
	}
	// The sustainable point must not exceed the platform limit.
	if an.SteadyTempK > plat.ThermalLimitK()+0.2 {
		t.Errorf("steady %v K exceeds limit %v K", an.SteadyTempK, plat.ThermalLimitK())
	}
	if an.GPUFreqHz == 0 {
		t.Error("GPU frequency should be reported for a GPU app")
	}
	if an.PowerW <= 0 {
		t.Error("power should be positive")
	}
}

func TestForAppSustainableBelowPeakWhenHot(t *testing.T) {
	plat := platform.Nexus6P(1)
	// A very heavy app: peak demand power must exceed what a 43°C limit
	// allows, so sustainable < peak — the throttling gap of Table I.
	an, err := ForApp(plat, Profile{
		CPUCyclesPerFrame: 30e6,
		GPUCyclesPerFrame: 13e6,
		Threads:           4,
		OnBig:             true,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.SustainableFPS >= an.PeakFPS {
		t.Errorf("sustainable %v should be below peak %v for a heavy app", an.SustainableFPS, an.PeakFPS)
	}
}

func TestForAppHigherLimitMoreHeadroom(t *testing.T) {
	plat := platform.Nexus6P(1)
	pr := Profile{CPUCyclesPerFrame: 30e6, GPUCyclesPerFrame: 13e6, Threads: 4, OnBig: true}
	cool, err := ForApp(plat, pr, thermal.ToKelvin(40))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ForApp(plat, pr, thermal.ToKelvin(55))
	if err != nil {
		t.Fatal(err)
	}
	if warm.SustainableFPS < cool.SustainableFPS {
		t.Errorf("raising the limit cannot reduce headroom: %v -> %v",
			cool.SustainableFPS, warm.SustainableFPS)
	}
}

func TestForAppCPUOnly(t *testing.T) {
	plat := platform.OdroidXU3(1)
	an, err := ForApp(plat, Profile{CPUCyclesPerFrame: 40e6, Threads: 2, OnBig: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.GPUFreqHz != 0 {
		t.Error("CPU-only profile should not report a GPU frequency")
	}
	wantPeak := 2 * 2000e6 / 40e6
	if math.Abs(an.PeakFPS-wantPeak) > 0.01 {
		t.Errorf("peak = %v, want %v", an.PeakFPS, wantPeak)
	}
}
