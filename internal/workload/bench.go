package workload

import (
	"fmt"

	"repro/internal/stats"
)

// This file defines the Odroid-XU3 benchmark workloads of Section IV-C:
// 3DMark (Graphics Test 1 and 2) and Nenamark (level-based, terminating
// when the frame rate falls below the desired level).

// ThreeDMarkPhaseGT1 and ThreeDMarkPhaseGT2 index the two graphics
// tests inside the ThreeDMark phase script.
const (
	ThreeDMarkPhaseGT1 = 0
	ThreeDMarkPhaseGT2 = 1
)

// ThreeDMark is the 3DMark benchmark model: GT1 (lighter scenes, ~100
// FPS class on the Mali) followed by GT2 (heavier scenes, ~50 FPS
// class). Scores are the median FPS of each test, matching Table II.
type ThreeDMark struct {
	*FrameApp
}

// NewThreeDMark builds the benchmark with the given RNG seed.
func NewThreeDMark(seed int64) *ThreeDMark {
	return &ThreeDMark{FrameApp: MustFrameApp(FrameAppConfig{
		Name: "3dmark",
		Phases: []Phase{
			// GT1: light geometry.
			{DurationS: 110, CPUCyclesPerFrame: 6.0 * mega, GPUCyclesPerFrame: 6.0 * mega, TargetFPS: 120},
			// GT2: heavy shading.
			{DurationS: 110, CPUCyclesPerFrame: 7.0 * mega, GPUCyclesPerFrame: 11.5 * mega, TargetFPS: 120},
		},
		Loop:         false,
		SceneSigma:   0.05,
		ScenePeriodS: 2,
		Seed:         seed,
	})}
}

// GT1FPS returns the Graphics Test 1 score (median FPS).
func (t *ThreeDMark) GT1FPS() float64 { return t.PhaseMedianFPS(ThreeDMarkPhaseGT1) }

// GT2FPS returns the Graphics Test 2 score (median FPS).
func (t *ThreeDMark) GT2FPS() float64 { return t.PhaseMedianFPS(ThreeDMarkPhaseGT2) }

// Nenamark models the Nenamark benchmark: levels of geometrically
// increasing GPU cost run back to back; the run terminates once the
// frame rate stays below the desired level, and the score is the number
// of levels sustained (fractional within the failing level), matching
// the paper's "3.5 levels" metric.
type Nenamark struct {
	cfg NenamarkConfig

	level       int     // 0-based current level
	levelStart  float64 // time the level began
	failSeconds float64 // consecutive seconds below threshold
	terminated  bool
	score       float64

	frames       float64
	bucketFrames float64
	bucketStart  float64
	fpsSamples   []float64
}

// NenamarkConfig parameterizes the Nenamark model.
type NenamarkConfig struct {
	// Levels is the number of levels available.
	Levels int
	// LevelDurationS is each level's duration when sustained.
	LevelDurationS float64
	// BaseGPUCyclesPerFrame is level 1's per-frame GPU cost.
	BaseGPUCyclesPerFrame float64
	// LevelFactor multiplies the cost per level (geometric).
	LevelFactor float64
	// RampFactor scales the cost linearly within a level from 1x at the
	// start to RampFactor at the end (scenes get heavier as a level
	// progresses), which is what makes fractional scores like the
	// paper's "3.4 levels" possible. 1 (or 0) disables the ramp.
	RampFactor float64
	// CPUCyclesPerFrame is the fixed per-frame CPU cost.
	CPUCyclesPerFrame float64
	// ThresholdFPS is the desired frame rate; the run ends when FPS
	// stays below it for FailAfterS consecutive seconds.
	ThresholdFPS float64
	// FailAfterS is the sustained-below-threshold window that terminates
	// the run.
	FailAfterS float64
	// TargetFPS caps frame production.
	TargetFPS float64
}

// DefaultNenamarkConfig reproduces the paper's scoring scale: the
// unthrottled Odroid sustains ≈3.5 levels.
func DefaultNenamarkConfig() NenamarkConfig {
	return NenamarkConfig{
		Levels:                6,
		LevelDurationS:        30,
		BaseGPUCyclesPerFrame: 5.0 * mega,
		LevelFactor:           1.5,
		RampFactor:            1.4,
		CPUCyclesPerFrame:     2.0 * mega,
		ThresholdFPS:          30,
		FailAfterS:            3,
		TargetFPS:             60,
	}
}

// NewNenamark builds the benchmark. The config is validated.
func NewNenamark(cfg NenamarkConfig) (*Nenamark, error) {
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("workload: nenamark needs >= 1 level, got %d", cfg.Levels)
	}
	if cfg.LevelDurationS <= 0 || cfg.BaseGPUCyclesPerFrame <= 0 || cfg.LevelFactor <= 1 {
		return nil, fmt.Errorf("workload: nenamark config invalid: %+v", cfg)
	}
	if cfg.ThresholdFPS <= 0 || cfg.FailAfterS <= 0 || cfg.TargetFPS < cfg.ThresholdFPS {
		return nil, fmt.Errorf("workload: nenamark FPS config invalid: %+v", cfg)
	}
	if cfg.CPUCyclesPerFrame < 0 {
		return nil, fmt.Errorf("workload: nenamark CPU cost must be >= 0")
	}
	if cfg.RampFactor == 0 {
		cfg.RampFactor = 1
	}
	if cfg.RampFactor < 1 {
		return nil, fmt.Errorf("workload: nenamark ramp factor must be >= 1, got %v", cfg.RampFactor)
	}
	return &Nenamark{cfg: cfg}, nil
}

// Name implements App.
func (n *Nenamark) Name() string { return "nenamark" }

// gpuCost returns the per-frame GPU cycles at the given progress
// (0..1) through the current level.
func (n *Nenamark) gpuCost(progress float64) float64 {
	c := n.cfg.BaseGPUCyclesPerFrame
	for i := 0; i < n.level; i++ {
		c *= n.cfg.LevelFactor
	}
	if progress < 0 {
		progress = 0
	}
	if progress > 1 {
		progress = 1
	}
	return c * (1 + (n.cfg.RampFactor-1)*progress)
}

// progress returns the fraction of the current level elapsed at nowS.
func (n *Nenamark) progress(nowS float64) float64 {
	return (nowS - n.levelStart) / n.cfg.LevelDurationS
}

// Demand implements App.
func (n *Nenamark) Demand(nowS float64) Demand {
	if n.terminated {
		return Demand{}
	}
	return Demand{
		CPUHz: n.cfg.TargetFPS * n.cfg.CPUCyclesPerFrame,
		GPUHz: n.cfg.TargetFPS * n.gpuCost(n.progress(nowS)),
	}
}

// Advance implements App.
func (n *Nenamark) Advance(nowS, dt float64, r Resources) {
	if n.terminated {
		return
	}
	fps := n.cfg.TargetFPS
	if n.cfg.CPUCyclesPerFrame > 0 && r.CPUSpeedHz/n.cfg.CPUCyclesPerFrame < fps {
		fps = r.CPUSpeedHz / n.cfg.CPUCyclesPerFrame
	}
	if g := n.gpuCost(n.progress(nowS)); g > 0 && r.GPUSpeedHz/g < fps {
		fps = r.GPUSpeedHz / g
	}
	if fps < 0 {
		fps = 0
	}
	n.frames += fps * dt
	n.bucketFrames += fps * dt

	for nowS+dt-n.bucketStart >= 1.0 {
		sample := n.bucketFrames
		n.fpsSamples = append(n.fpsSamples, sample)
		n.bucketFrames = 0
		n.bucketStart += 1.0
		if sample < n.cfg.ThresholdFPS {
			n.failSeconds++
		} else {
			n.failSeconds = 0
		}
		if n.failSeconds >= n.cfg.FailAfterS {
			n.terminate(n.bucketStart)
			return
		}
	}

	// Level progression.
	if nowS+dt-n.levelStart >= n.cfg.LevelDurationS {
		n.levelStart += n.cfg.LevelDurationS
		n.level++
		n.failSeconds = 0
		if n.level >= n.cfg.Levels {
			// Survived everything: full score.
			n.terminated = true
			n.score = float64(n.cfg.Levels)
		}
	}
}

// terminate ends the run and fixes the fractional score: completed
// levels plus the fraction of the failing level survived.
func (n *Nenamark) terminate(nowS float64) {
	n.terminated = true
	frac := (nowS - n.levelStart - n.cfg.FailAfterS) / n.cfg.LevelDurationS
	n.score = float64(n.level) + stats.Clamp(frac, 0, 0.999)
}

// Score returns the levels sustained; 0.1 granularity matches the
// paper's "3.5 levels" reporting.
func (n *Nenamark) Score() float64 {
	if !n.terminated {
		// In-progress runs report completed levels so far.
		return float64(n.level)
	}
	return float64(int(n.score*10+0.5)) / 10
}

// FPSSamples implements FPSReporter.
func (n *Nenamark) FPSSamples() []float64 {
	return append([]float64(nil), n.fpsSamples...)
}

// MedianFPS implements FPSReporter.
func (n *Nenamark) MedianFPS() float64 {
	m, err := stats.Median(n.fpsSamples)
	if err != nil {
		return 0
	}
	return m
}
