// Package workload models the applications the paper measures: the five
// popular Android apps of Section III (Paper.io, Stickman Hook, Amazon,
// Google Hangouts, Facebook), the Odroid benchmarks of Section IV-C
// (3DMark GT1/GT2, Nenamark), and the MiBench basicmath-large (BML)
// background task.
//
// Apps are frame pipelines: each frame costs CPU cycles and GPU cycles;
// the achievable frame rate is limited by the slower stage and capped by
// the app's target. Scripted phases plus seeded stochastic scene
// variation drive the DVFS governors through realistic frequency
// residency patterns, which is what Figures 1-6 measure.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/detrand"
	"repro/internal/mibench"
	"repro/internal/stats"
)

// Demand is what an app asks of the platform this instant.
type Demand struct {
	// CPUHz is the requested CPU execution rate in cycles/s.
	CPUHz float64
	// GPUHz is the requested GPU execution rate in cycles/s.
	GPUHz float64
	// Touch reports a user-interaction event since the last query; the
	// interactive governor boosts on it.
	Touch bool
}

// Resources is what the platform actually granted over a step.
type Resources struct {
	// CPUSpeedHz is the achieved CPU rate in cycles/s.
	CPUSpeedHz float64
	// GPUSpeedHz is the achieved GPU rate in cycles/s.
	GPUSpeedHz float64
}

// App is a runnable application model.
type App interface {
	// Name identifies the app.
	Name() string
	// Demand returns the app's current resource request.
	Demand(nowS float64) Demand
	// Advance runs the app for dt seconds with the granted resources.
	Advance(nowS, dt float64, r Resources)
}

// FPSReporter is implemented by apps that render frames.
type FPSReporter interface {
	// FPSSamples returns per-second frame-rate samples.
	FPSSamples() []float64
	// MedianFPS returns the median of FPSSamples (0 when empty).
	MedianFPS() float64
}

// Phase is one segment of an app's behavior script.
type Phase struct {
	// DurationS is how long the phase lasts.
	DurationS float64
	// CPUCyclesPerFrame and GPUCyclesPerFrame cost each frame.
	CPUCyclesPerFrame float64
	GPUCyclesPerFrame float64
	// TargetFPS caps the app's own frame production (engine cap/vsync).
	TargetFPS float64
	// TouchRatePerS is the mean rate of user-interaction events.
	TouchRatePerS float64
}

// FrameAppConfig configures a scripted frame-pipeline app.
type FrameAppConfig struct {
	// Name labels the app.
	Name string
	// Phases is the behavior script; it loops when Loop is set.
	Phases []Phase
	// Loop repeats the script indefinitely.
	Loop bool
	// SceneSigma is the log-normal sigma of the per-scene workload
	// multiplier (0 disables variation).
	SceneSigma float64
	// ScenePeriodS is how often the scene multiplier resamples.
	ScenePeriodS float64
	// SlotHz enables frame pacing: a frame completes only on the next
	// SlotHz boundary after its compute finishes (vsync-style), so the
	// instantaneous rate is SlotHz/ceil(frameTime·SlotHz). This is why a
	// one-OPP GPU drop costs a disproportionate FPS step on real phones
	// (Table I). Zero disables pacing.
	SlotHz float64
	// Seed seeds the app's private RNG.
	Seed int64
}

// FrameApp is a scripted frame-pipeline application.
type FrameApp struct {
	cfg FrameAppConfig
	rng *rand.Rand
	src *detrand.Source

	phaseIdx   int
	phaseStart float64
	done       bool

	sceneMult float64
	nextScene float64

	frames       float64
	bucketFrames float64
	bucketStart  float64
	fpsSamples   []float64
	phaseFPS     map[int][]float64
}

// NewFrameApp validates cfg and builds the app.
func NewFrameApp(cfg FrameAppConfig) (*FrameApp, error) {
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("workload: app %q needs at least one phase", cfg.Name)
	}
	for i, p := range cfg.Phases {
		if p.DurationS <= 0 {
			return nil, fmt.Errorf("workload: app %q phase %d duration must be positive", cfg.Name, i)
		}
		if p.CPUCyclesPerFrame < 0 || p.GPUCyclesPerFrame < 0 {
			return nil, fmt.Errorf("workload: app %q phase %d has negative cycle cost", cfg.Name, i)
		}
		if p.TargetFPS <= 0 {
			return nil, fmt.Errorf("workload: app %q phase %d target FPS must be positive", cfg.Name, i)
		}
		if p.TouchRatePerS < 0 {
			return nil, fmt.Errorf("workload: app %q phase %d touch rate must be >= 0", cfg.Name, i)
		}
	}
	if cfg.SceneSigma < 0 || cfg.ScenePeriodS < 0 {
		return nil, fmt.Errorf("workload: app %q scene variation params must be >= 0", cfg.Name)
	}
	if cfg.SceneSigma > 0 && cfg.ScenePeriodS == 0 {
		return nil, fmt.Errorf("workload: app %q needs a scene period when sigma > 0", cfg.Name)
	}
	if cfg.SlotHz < 0 || math.IsNaN(cfg.SlotHz) {
		return nil, fmt.Errorf("workload: app %q slot rate must be >= 0", cfg.Name)
	}
	src := detrand.New(cfg.Seed)
	return &FrameApp{
		cfg:       cfg,
		rng:       rand.New(src),
		src:       src,
		sceneMult: 1,
		phaseFPS:  make(map[int][]float64),
	}, nil
}

// MustFrameApp is NewFrameApp that panics on error; for static app tables.
func MustFrameApp(cfg FrameAppConfig) *FrameApp {
	a, err := NewFrameApp(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the app name.
func (a *FrameApp) Name() string { return a.cfg.Name }

// phase returns the active phase, advancing the script as time passes.
func (a *FrameApp) phase(nowS float64) *Phase {
	if a.done {
		return nil
	}
	for nowS-a.phaseStart >= a.cfg.Phases[a.phaseIdx].DurationS {
		a.phaseStart += a.cfg.Phases[a.phaseIdx].DurationS
		a.phaseIdx++
		if a.phaseIdx >= len(a.cfg.Phases) {
			if a.cfg.Loop {
				a.phaseIdx = 0
			} else {
				a.done = true
				return nil
			}
		}
	}
	return &a.cfg.Phases[a.phaseIdx]
}

// scene resamples the workload multiplier on its schedule.
func (a *FrameApp) scene(nowS float64) float64 {
	if a.cfg.SceneSigma == 0 {
		return 1
	}
	if nowS+1e-12 >= a.nextScene {
		m := math.Exp(a.rng.NormFloat64() * a.cfg.SceneSigma)
		a.sceneMult = stats.Clamp(m, 0.5, 2.0)
		for a.nextScene <= nowS+1e-12 {
			a.nextScene += a.cfg.ScenePeriodS
		}
	}
	return a.sceneMult
}

// Demand implements App.
func (a *FrameApp) Demand(nowS float64) Demand {
	p := a.phase(nowS)
	if p == nil {
		return Demand{}
	}
	m := a.scene(nowS)
	d := Demand{
		CPUHz: p.TargetFPS * p.CPUCyclesPerFrame * m,
		GPUHz: p.TargetFPS * p.GPUCyclesPerFrame * m,
	}
	if p.TouchRatePerS > 0 {
		// Bernoulli approximation of a Poisson arrival in one query
		// interval; the sim queries every step, so scale by a nominal
		// 1 ms quantum to keep rates meaningful.
		if a.rng.Float64() < p.TouchRatePerS*0.001 {
			d.Touch = true
		}
	}
	return d
}

// Advance implements App: frames complete at the rate the slower
// pipeline stage sustains, capped by the phase target.
func (a *FrameApp) Advance(nowS, dt float64, r Resources) {
	p := a.phase(nowS)
	if p != nil {
		m := a.sceneMult
		if a.cfg.SceneSigma == 0 {
			m = 1
		}
		fps := p.TargetFPS
		// Branches instead of math.Min: the operands are finite and the
		// NaN guard below owns the degenerate cases, so the result is
		// identical and the per-step call disappears from the profile.
		if p.CPUCyclesPerFrame > 0 {
			if v := r.CPUSpeedHz / (p.CPUCyclesPerFrame * m); v < fps {
				fps = v
			}
		}
		if p.GPUCyclesPerFrame > 0 {
			if v := r.GPUSpeedHz / (p.GPUCyclesPerFrame * m); v < fps {
				fps = v
			}
		}
		if fps < 0 || math.IsNaN(fps) {
			fps = 0
		}
		if a.cfg.SlotHz > 0 && fps > 0 {
			// Frame pacing: completion waits for the next slot boundary.
			slots := math.Ceil(a.cfg.SlotHz/fps - 1e-9)
			fps = a.cfg.SlotHz / slots
		}
		a.frames += fps * dt
		a.bucketFrames += fps * dt
	}
	// Close out 1-second FPS buckets.
	for nowS+dt-a.bucketStart >= 1.0 {
		a.fpsSamples = append(a.fpsSamples, a.bucketFrames)
		if p != nil {
			a.phaseFPS[a.phaseIdx] = append(a.phaseFPS[a.phaseIdx], a.bucketFrames)
		}
		a.bucketFrames = 0
		a.bucketStart += 1.0
	}
}

// FPSSamples implements FPSReporter.
func (a *FrameApp) FPSSamples() []float64 {
	return append([]float64(nil), a.fpsSamples...)
}

// MedianFPS implements FPSReporter.
func (a *FrameApp) MedianFPS() float64 {
	m, err := stats.Median(a.fpsSamples)
	if err != nil {
		return 0
	}
	return m
}

// PhaseMedianFPS returns the median FPS measured while phase i was
// active (0 when the phase never ran). 3DMark's GT1/GT2 scores use it.
func (a *FrameApp) PhaseMedianFPS(i int) float64 {
	m, err := stats.Median(a.phaseFPS[i])
	if err != nil {
		return 0
	}
	return m
}

// BML is the MiBench basicmath-large background task: a pure CPU hog
// with no frames. It executes real basicmath kernels at a decimated
// rate (ExecuteRatio) while accounting modeled cycles exactly.
type BML struct {
	// ExecuteRatio is the fraction of modeled iterations actually
	// executed (default 1/1000); full execution would dominate the
	// simulation's own runtime without changing its behavior.
	ExecuteRatio float64

	work            mibench.Workload
	modeledCycles   float64
	modeledIters    uint64
	executedBacklog float64
}

// NewBML returns a BML task with the default execution decimation.
func NewBML() *BML { return &BML{ExecuteRatio: 0.001} }

// Name implements App.
func (b *BML) Name() string { return "basicmath-large" }

// Demand implements App: BML always wants more CPU than any cluster can
// give a single thread, so it saturates one core at any frequency.
func (b *BML) Demand(nowS float64) Demand {
	return Demand{CPUHz: 1e12}
}

// Advance implements App: convert granted cycles into completed
// basicmath iterations.
func (b *BML) Advance(nowS, dt float64, r Resources) {
	cycles := r.CPUSpeedHz * dt
	if cycles <= 0 {
		return
	}
	b.modeledCycles += cycles
	iters := uint64(b.modeledCycles / mibench.CyclesPerIteration)
	newIters := iters - b.modeledIters
	b.modeledIters = iters
	b.executedBacklog += float64(newIters) * b.ExecuteRatio
	if n := uint64(b.executedBacklog); n > 0 {
		b.work.RunIterations(n)
		b.executedBacklog -= float64(n)
	}
}

// Iterations reports modeled completed BML iterations.
func (b *BML) Iterations() uint64 { return b.modeledIters }

// ExecutedIterations reports how many iterations actually ran.
func (b *BML) ExecutedIterations() uint64 { return b.work.Iterations() }

// Checksum exposes the verification checksum of the executed kernels.
func (b *BML) Checksum() float64 { return b.work.Checksum() }
