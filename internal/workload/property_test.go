package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: a frame app's instantaneous rate never exceeds its phase
// target (after slot quantization the target itself, being reachable,
// is the cap) and never goes negative, for arbitrary granted resources.
func TestFrameAppRateBounded(t *testing.T) {
	f := func(rawCPU, rawGPU float64, slotOn bool) bool {
		cpu := math.Abs(math.Mod(rawCPU, 5e9))
		gpu := math.Abs(math.Mod(rawGPU, 2e9))
		if math.IsNaN(cpu) || math.IsNaN(gpu) {
			return true
		}
		slot := 0.0
		if slotOn {
			slot = 120
		}
		app, err := NewFrameApp(FrameAppConfig{
			Name: "p",
			Phases: []Phase{
				{DurationS: 10, CPUCyclesPerFrame: 5e6, GPUCyclesPerFrame: 8e6, TargetFPS: 40},
			},
			Loop:   true,
			SlotHz: slot,
		})
		if err != nil {
			return false
		}
		prevFrames := 0.0
		for i := 0; i < 30; i++ {
			now := float64(i) * 0.1
			app.Demand(now)
			app.Advance(now, 0.1, Resources{CPUSpeedHz: cpu, GPUSpeedHz: gpu})
			frames := app.frames
			// Frames are cumulative and the per-interval rate respects
			// the 40 FPS target cap.
			if frames < prevFrames-1e-9 {
				return false
			}
			if frames-prevFrames > 40*0.1+1e-6 {
				return false
			}
			prevFrames = frames
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the demand a frame app reports is always non-negative and
// finite, for any point in its (looping) script.
func TestFrameAppDemandFinite(t *testing.T) {
	f := func(rawT float64, seed int64) bool {
		app := PaperIO(seed)
		now := math.Abs(math.Mod(rawT, 1000))
		if math.IsNaN(now) {
			return true
		}
		d := app.Demand(now)
		for _, v := range []float64{d.CPUHz, d.GPUHz} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: slot quantization only ever reduces the rate, and the
// result divides the slot clock.
func TestSlotQuantizationProperty(t *testing.T) {
	f := func(rawFPS float64) bool {
		raw := 1 + math.Abs(math.Mod(rawFPS, 200))
		app := MustFrameApp(FrameAppConfig{
			Name:   "q",
			Phases: []Phase{{DurationS: 1000, GPUCyclesPerFrame: 1e6, TargetFPS: 1000}},
			Loop:   true,
			SlotHz: 120,
		})
		// Grant exactly raw FPS worth of GPU cycles for 1 s.
		for i := 0; i < 10; i++ {
			app.Advance(float64(i)*0.1, 0.1, Resources{GPUSpeedHz: raw * 1e6})
		}
		got := app.frames
		if got > raw+1e-6 {
			return false // quantization must not create frames
		}
		// The observed rate must be 120/k for an integer k.
		if got <= 0 {
			return raw < 1.5 // only near-zero grants may round to zero
		}
		k := 120 / got
		return math.Abs(k-math.Round(k)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
