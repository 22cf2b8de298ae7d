package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// This file is the stochastic workload generator: a declarative,
// JSON-serializable GenSpec synthesizes seeded phase-based demand
// profiles, so sweeps can explore an open space of workloads instead of
// the handful of hand-calibrated app models. Generated apps are plain
// FrameApps — they flow through the scheduler/governor/thermal pipeline
// exactly like the paper's apps, and the same seed always synthesizes
// the bitwise-identical script (the property tests pin this).

// Generator kinds GenSpec accepts.
const (
	// GenBursty alternates idle phases with seeded bursts of heavy
	// frames — the foreground-app pattern that provokes interactive
	// governor boosts and thermal transients.
	GenBursty = "bursty"
	// GenPeriodic alternates low and high phases deterministically with
	// seeded amplitudes — a steady duty-cycle load.
	GenPeriodic = "periodic"
	// GenRamp ramps demand monotonically from the minimum to the
	// maximum across the horizon — the profile that walks a platform
	// into its thermal limit.
	GenRamp = "ramp"
	// GenPerturb perturbs a base phase script (the built-in game-like
	// profile unless the spec carries its own) with seeded per-phase
	// multipliers, clamped to the spec bounds — trace perturbation.
	GenPerturb = "perturb"
)

// GenKinds lists the accepted generator kinds.
func GenKinds() []string { return []string{GenBursty, GenPeriodic, GenRamp, GenPerturb} }

// Generator defaults, filled by GenSpec.Normalize.
const (
	// DefaultGenHorizonS is the script length when horizon_s is 0; the
	// script loops past it, like every built-in app.
	DefaultGenHorizonS = 60.0
	// DefaultGenTargetFPS caps frame production when target_fps is 0.
	DefaultGenTargetFPS = 60.0
	// DefaultGenPhaseMeanS is the mean phase duration when
	// phase_mean_s is 0.
	DefaultGenPhaseMeanS = 5.0
	// DefaultGenBurstRatio is the bursty-kind high-phase probability
	// when burst_ratio is 0.
	DefaultGenBurstRatio = 0.5
	// DefaultGenCPUCyclesMin/Max and DefaultGenGPUCyclesMin/Max are the
	// per-frame cycle bounds filled when a spec sets none of the four —
	// they roughly bracket the hand-calibrated app models, so a spec
	// that only tunes shape knobs (burst ratio, horizon) still runs.
	DefaultGenCPUCyclesMin = 2 * mega
	DefaultGenCPUCyclesMax = 40 * mega
	DefaultGenGPUCyclesMin = 1 * mega
	DefaultGenGPUCyclesMax = 12 * mega
)

// MaxGenPhases bounds how many phases one generated script may hold, so
// a hostile horizon/phase-mean pair fails validation instead of
// materializing millions of phases.
const MaxGenPhases = 4096

// GenSpec declares a stochastic workload. The zero value is not
// runnable; set at least Kind and the cycle bounds, then Normalize and
// Validate (the pkg/mobisim scenario layer does both). Build funnels a
// seed in; the spec's own Seed field is a stable offset added to it, so
// one scenario seed can drive several distinct generators.
type GenSpec struct {
	// Name labels the generated app; empty defaults to "gen-<kind>".
	Name string `json:"name,omitempty"`
	// Kind is one of GenKinds.
	Kind string `json:"kind"`
	// HorizonS is the synthesized script length in seconds; the script
	// loops past it (0 = DefaultGenHorizonS).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// PhaseMeanS is the mean phase duration (0 = DefaultGenPhaseMeanS).
	PhaseMeanS float64 `json:"phase_mean_s,omitempty"`
	// TargetFPS caps the app's frame production (0 = DefaultGenTargetFPS).
	TargetFPS float64 `json:"target_fps,omitempty"`
	// CPUCyclesPerFrameMin/Max bound the per-frame CPU cost the
	// generator may assign (Max required > 0 unless the GPU axis is
	// set).
	CPUCyclesPerFrameMin float64 `json:"cpu_cycles_per_frame_min,omitempty"`
	CPUCyclesPerFrameMax float64 `json:"cpu_cycles_per_frame_max,omitempty"`
	// GPUCyclesPerFrameMin/Max bound the per-frame GPU cost.
	GPUCyclesPerFrameMin float64 `json:"gpu_cycles_per_frame_min,omitempty"`
	GPUCyclesPerFrameMax float64 `json:"gpu_cycles_per_frame_max,omitempty"`
	// BurstRatio is the bursty-kind probability of a high phase, in
	// (0, 1] (0 = DefaultGenBurstRatio). Other kinds ignore it.
	BurstRatio float64 `json:"burst_ratio,omitempty"`
	// TouchRatePerS is the mean user-interaction rate during high
	// phases.
	TouchRatePerS float64 `json:"touch_rate_per_s,omitempty"`
	// Base is the phase script GenPerturb perturbs; empty selects the
	// built-in game-like profile. Other kinds ignore it.
	Base []GenPhase `json:"base,omitempty"`
	// Seed is a stable offset mixed into the Build seed.
	Seed int64 `json:"seed,omitempty"`
}

// GenPhase is one base phase of a perturb-kind spec — the declarative
// mirror of Phase.
type GenPhase struct {
	DurationS         float64 `json:"duration_s"`
	CPUCyclesPerFrame float64 `json:"cpu_cycles_per_frame,omitempty"`
	GPUCyclesPerFrame float64 `json:"gpu_cycles_per_frame,omitempty"`
	TargetFPS         float64 `json:"target_fps,omitempty"`
	TouchRatePerS     float64 `json:"touch_rate_per_s,omitempty"`
}

// DefaultGenSpec returns the canonical spec of a generator kind — what
// the pkg/mobisim "gen-<kind>" workload names run.
func DefaultGenSpec(kind string) GenSpec {
	s := GenSpec{Kind: kind, TouchRatePerS: 2}
	s.Normalize()
	return s
}

// Normalize fills defaults in place; idempotent. The cycle bounds
// default as a block: when a spec sets none of the four, all four are
// filled, so tuning only shape knobs (burst ratio, horizon, FPS)
// yields a runnable spec; setting any bound takes full ownership of
// the demand axes.
func (g *GenSpec) Normalize() {
	if g.Name == "" && g.Kind != "" {
		g.Name = "gen-" + g.Kind
	}
	if g.HorizonS == 0 {
		g.HorizonS = DefaultGenHorizonS
	}
	if g.PhaseMeanS == 0 {
		g.PhaseMeanS = DefaultGenPhaseMeanS
	}
	if g.TargetFPS == 0 {
		g.TargetFPS = DefaultGenTargetFPS
	}
	if g.BurstRatio == 0 {
		g.BurstRatio = DefaultGenBurstRatio
	}
	if g.CPUCyclesPerFrameMin == 0 && g.CPUCyclesPerFrameMax == 0 &&
		g.GPUCyclesPerFrameMin == 0 && g.GPUCyclesPerFrameMax == 0 {
		g.CPUCyclesPerFrameMin = DefaultGenCPUCyclesMin
		g.CPUCyclesPerFrameMax = DefaultGenCPUCyclesMax
		g.GPUCyclesPerFrameMin = DefaultGenGPUCyclesMin
		g.GPUCyclesPerFrameMax = DefaultGenGPUCyclesMax
	}
	// Canonicalize an explicit-but-empty base to nil: the JSON field is
	// omitempty, so only the nil form round-trips bit-stably.
	if len(g.Base) == 0 {
		g.Base = nil
	}
}

// Validate checks the spec without building anything. Like the platform
// spec layer it is at least as strict as the builder: any spec Validate
// accepts must Build without error for every seed.
func (g GenSpec) Validate() error {
	kindKnown := false
	for _, k := range GenKinds() {
		if g.Kind == k {
			kindKnown = true
			break
		}
	}
	if !kindKnown {
		return fmt.Errorf("workload: unknown generator kind %q (want %s)", g.Kind, strings.Join(GenKinds(), ", "))
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"horizon_s", g.HorizonS},
		{"phase_mean_s", g.PhaseMeanS},
		{"target_fps", g.TargetFPS},
		{"cpu_cycles_per_frame_min", g.CPUCyclesPerFrameMin},
		{"cpu_cycles_per_frame_max", g.CPUCyclesPerFrameMax},
		{"gpu_cycles_per_frame_min", g.GPUCyclesPerFrameMin},
		{"gpu_cycles_per_frame_max", g.GPUCyclesPerFrameMax},
		{"burst_ratio", g.BurstRatio},
		{"touch_rate_per_s", g.TouchRatePerS},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("workload: generator %s must be finite, got %v", f.name, f.value)
		}
	}
	if g.HorizonS <= 0 || g.PhaseMeanS <= 0 || g.TargetFPS <= 0 {
		return fmt.Errorf("workload: generator horizon, phase mean and target FPS must be positive")
	}
	if g.HorizonS/g.PhaseMeanS > MaxGenPhases {
		return fmt.Errorf("workload: generator horizon %vs over %vs phases spans more than %d phases",
			g.HorizonS, g.PhaseMeanS, MaxGenPhases)
	}
	if g.CPUCyclesPerFrameMin < 0 || g.GPUCyclesPerFrameMin < 0 {
		return fmt.Errorf("workload: generator cycle minima must be >= 0")
	}
	if g.CPUCyclesPerFrameMax < g.CPUCyclesPerFrameMin || g.GPUCyclesPerFrameMax < g.GPUCyclesPerFrameMin {
		return fmt.Errorf("workload: generator cycle maxima must be >= their minima")
	}
	if g.CPUCyclesPerFrameMax <= 0 && g.GPUCyclesPerFrameMax <= 0 {
		return fmt.Errorf("workload: generator needs a positive CPU or GPU cycle budget")
	}
	if g.BurstRatio <= 0 || g.BurstRatio > 1 {
		return fmt.Errorf("workload: generator burst_ratio must be in (0, 1], got %v", g.BurstRatio)
	}
	if g.TouchRatePerS < 0 {
		return fmt.Errorf("workload: generator touch rate must be >= 0")
	}
	for i, p := range g.Base {
		if math.IsNaN(p.DurationS) || p.DurationS <= 0 || math.IsInf(p.DurationS, 0) {
			return fmt.Errorf("workload: generator base phase %d duration must be positive and finite", i)
		}
		if math.IsNaN(p.CPUCyclesPerFrame) || p.CPUCyclesPerFrame < 0 || math.IsInf(p.CPUCyclesPerFrame, 0) ||
			math.IsNaN(p.GPUCyclesPerFrame) || p.GPUCyclesPerFrame < 0 || math.IsInf(p.GPUCyclesPerFrame, 0) {
			return fmt.Errorf("workload: generator base phase %d has invalid cycle costs", i)
		}
		if math.IsNaN(p.TargetFPS) || p.TargetFPS < 0 || math.IsInf(p.TargetFPS, 0) {
			return fmt.Errorf("workload: generator base phase %d target FPS must be >= 0 and finite", i)
		}
		if math.IsNaN(p.TouchRatePerS) || p.TouchRatePerS < 0 || math.IsInf(p.TouchRatePerS, 0) {
			return fmt.Errorf("workload: generator base phase %d touch rate must be >= 0 and finite", i)
		}
	}
	if len(g.Base) > MaxGenPhases {
		return fmt.Errorf("workload: generator base script has %d phases, exceeding the %d bound", len(g.Base), MaxGenPhases)
	}
	return nil
}

// MaxDemandHz returns the spec's demand ceiling for one axis: the
// highest CPU (or GPU) rate any phase the generator can synthesize may
// request. Generated apps use no scene variation, so the bound is
// exact; the property tests assert it.
func (g GenSpec) MaxDemandHz() (cpuHz, gpuHz float64) {
	g.Normalize()
	fps, cpuMax, gpuMax := g.TargetFPS, g.CPUCyclesPerFrameMax, g.GPUCyclesPerFrameMax
	if g.Kind == GenPerturb {
		for _, p := range g.basePhases() {
			pf := p.TargetFPS
			if pf == 0 {
				pf = g.TargetFPS
			}
			if pf > fps {
				fps = pf
			}
		}
	}
	return fps * cpuMax, fps * gpuMax
}

// basePhases returns the perturb kind's base script: the spec's own, or
// the built-in game-like profile scaled into the spec's cycle bounds.
func (g GenSpec) basePhases() []GenPhase {
	if len(g.Base) > 0 {
		return g.Base
	}
	// A Paper.io-shaped default: menu, heavy gameplay, score screen.
	return []GenPhase{
		{DurationS: 6, CPUCyclesPerFrame: span(g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax, 0.15),
			GPUCyclesPerFrame: span(g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax, 0.2), TargetFPS: g.TargetFPS, TouchRatePerS: g.TouchRatePerS * 0.5},
		{DurationS: 40, CPUCyclesPerFrame: span(g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax, 0.8),
			GPUCyclesPerFrame: span(g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax, 0.95), TargetFPS: g.TargetFPS, TouchRatePerS: g.TouchRatePerS},
		{DurationS: 4, CPUCyclesPerFrame: span(g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax, 0.2),
			GPUCyclesPerFrame: span(g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax, 0.3), TargetFPS: g.TargetFPS, TouchRatePerS: g.TouchRatePerS * 0.5},
	}
}

// mixSeed folds the spec's seed offset into the build seed with a
// SplitMix64-style finalizer, so adjacent (seed, offset) pairs land on
// well-spread streams. It is pinned by the determinism property test:
// changing it changes every generated workload.
func mixSeed(seed, offset int64) int64 {
	z := uint64(seed) ^ (uint64(offset) * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Build normalizes and validates the spec, then synthesizes the seeded
// phase script and wraps it in a FrameApp. The same (spec, seed) pair
// always produces the bitwise-identical app: phase synthesis consumes
// its own deterministic stream, and the FrameApp's runtime RNG (touch
// events) is seeded from the same mix.
func (g GenSpec) Build(seed int64) (*FrameApp, error) {
	g.Normalize()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	mixed := mixSeed(seed, g.Seed)
	rng := rand.New(rand.NewSource(mixed))

	var phases []Phase
	switch g.Kind {
	case GenBursty:
		phases = g.burstyPhases(rng)
	case GenPeriodic:
		phases = g.periodicPhases(rng)
	case GenRamp:
		phases = g.rampPhases(rng)
	case GenPerturb:
		phases = g.perturbPhases(rng)
	default:
		return nil, fmt.Errorf("workload: unknown generator kind %q", g.Kind)
	}
	return NewFrameApp(FrameAppConfig{
		Name:   g.Name,
		Phases: phases,
		Loop:   true,
		// No scene variation: the spec's cycle bounds are exact demand
		// bounds, which is what makes generated workloads analyzable.
		Seed: mixed + 1,
	})
}

// phaseDurations splits the horizon into n seeded phase lengths that
// sum exactly to the horizon: every duration is a share of the weight
// total, with the last taking the float remainder.
func (g GenSpec) phaseDurations(rng *rand.Rand, n int) []float64 {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		// Weights in [0.5, 1.5): phase lengths vary ±50% around the mean
		// but can never collapse to zero.
		weights[i] = 0.5 + rng.Float64()
		total += weights[i]
	}
	out := make([]float64, n)
	sum := 0.0
	for i := 0; i < n-1; i++ {
		out[i] = g.HorizonS * (weights[i] / total)
		sum += out[i]
	}
	out[n-1] = g.HorizonS - sum
	return out
}

// numPhases returns the phase count for the horizon/mean pair, at
// least 2 so every kind has contrast within one loop.
func (g GenSpec) numPhases() int {
	n := int(math.Round(g.HorizonS / g.PhaseMeanS))
	if n < 2 {
		n = 2
	}
	return n
}

// span interpolates a cycle budget between its min and max bound.
func span(min, max, frac float64) float64 { return min + (max-min)*frac }

// burstyPhases alternates seeded idle and burst phases.
func (g GenSpec) burstyPhases(rng *rand.Rand) []Phase {
	n := g.numPhases()
	durs := g.phaseDurations(rng, n)
	phases := make([]Phase, n)
	for i := range phases {
		burst := rng.Float64() < g.BurstRatio
		cpuFrac, gpuFrac, touch := 0.05+0.1*rng.Float64(), 0.05+0.1*rng.Float64(), 0.0
		if burst {
			cpuFrac, gpuFrac, touch = 0.7+0.3*rng.Float64(), 0.7+0.3*rng.Float64(), g.TouchRatePerS
		}
		phases[i] = Phase{
			DurationS:         durs[i],
			CPUCyclesPerFrame: span(g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax, cpuFrac),
			GPUCyclesPerFrame: span(g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax, gpuFrac),
			TargetFPS:         g.TargetFPS,
			TouchRatePerS:     touch,
		}
	}
	return phases
}

// periodicPhases alternates low and high phases; the seeded part is
// only the per-cycle amplitude, so the profile is a jittered square
// wave.
func (g GenSpec) periodicPhases(rng *rand.Rand) []Phase {
	n := g.numPhases()
	durs := g.phaseDurations(rng, n)
	phases := make([]Phase, n)
	for i := range phases {
		frac := 0.1
		touch := 0.0
		if i%2 == 1 {
			frac = 0.85 + 0.15*rng.Float64()
			touch = g.TouchRatePerS
		}
		phases[i] = Phase{
			DurationS:         durs[i],
			CPUCyclesPerFrame: span(g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax, frac),
			GPUCyclesPerFrame: span(g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax, frac),
			TargetFPS:         g.TargetFPS,
			TouchRatePerS:     touch,
		}
	}
	return phases
}

// rampPhases walks demand monotonically from the minimum to the
// maximum across the horizon, with seeded jitter that never breaks
// monotonicity of the underlying ramp fraction grid.
func (g GenSpec) rampPhases(rng *rand.Rand) []Phase {
	n := g.numPhases()
	durs := g.phaseDurations(rng, n)
	phases := make([]Phase, n)
	for i := range phases {
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		frac := lo + (hi-lo)*rng.Float64()
		phases[i] = Phase{
			DurationS:         durs[i],
			CPUCyclesPerFrame: span(g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax, frac),
			GPUCyclesPerFrame: span(g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax, frac),
			TargetFPS:         g.TargetFPS,
			TouchRatePerS:     g.TouchRatePerS * frac,
		}
	}
	return phases
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// perturbPhases applies seeded log-normal multipliers to the base
// script's cycle costs, clamped into the spec bounds, and rescales the
// base durations onto the spec horizon (so the sum-to-horizon
// invariant holds for every kind).
func (g GenSpec) perturbPhases(rng *rand.Rand) []Phase {
	base := g.basePhases()
	baseTotal := 0.0
	for _, p := range base {
		baseTotal += p.DurationS
	}
	phases := make([]Phase, len(base))
	sum := 0.0
	for i, p := range base {
		cpuMult := math.Exp(rng.NormFloat64() * 0.25)
		gpuMult := math.Exp(rng.NormFloat64() * 0.25)
		fps := p.TargetFPS
		if fps == 0 {
			fps = g.TargetFPS
		}
		phases[i] = Phase{
			CPUCyclesPerFrame: clamp(p.CPUCyclesPerFrame*cpuMult, g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax),
			GPUCyclesPerFrame: clamp(p.GPUCyclesPerFrame*gpuMult, g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax),
			TargetFPS:         fps,
			TouchRatePerS:     p.TouchRatePerS,
		}
		if i < len(base)-1 {
			phases[i].DurationS = g.HorizonS * (p.DurationS / baseTotal)
			sum += phases[i].DurationS
		} else {
			phases[i].DurationS = g.HorizonS - sum
		}
	}
	return phases
}
