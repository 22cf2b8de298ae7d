// Package headroom turns the power-temperature stability analysis
// inside out for application developers — the use the paper's
// conclusion proposes ("it can be used by application developers to
// optimize their apps such that they do not experience thermal
// throttling"): for a frame app's per-frame CPU/GPU costs on a given
// platform, ForApp finds the largest frame rate the platform can
// sustain indefinitely without tripping the thermal limit, and the OPPs
// it runs at there.
//
// A developer who keeps the app's demand under the sustainable frame
// rate never experiences the throttling collapse of the paper's
// Table I.
package headroom

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/platform"
)

// Profile is an application's steady per-frame execution cost.
type Profile struct {
	// CPUCyclesPerFrame and GPUCyclesPerFrame cost each frame.
	CPUCyclesPerFrame float64
	GPUCyclesPerFrame float64
	// Threads bounds the app's CPU parallelism (default 1).
	Threads int
	// Cluster selects big (true) or LITTLE (false) CPU placement.
	OnBig bool
}

func (pr Profile) validate() error {
	if pr.CPUCyclesPerFrame < 0 || pr.GPUCyclesPerFrame < 0 {
		return errors.New("headroom: per-frame costs must be >= 0")
	}
	if pr.CPUCyclesPerFrame == 0 && pr.GPUCyclesPerFrame == 0 {
		return errors.New("headroom: profile needs a non-zero cost")
	}
	if pr.Threads < 0 {
		return errors.New("headroom: threads must be >= 0")
	}
	return nil
}

// Analysis reports an app's thermal headroom on a platform.
type Analysis struct {
	// SustainableFPS is the largest frame rate the platform sustains
	// indefinitely at or below its thermal limit.
	SustainableFPS float64
	// PeakFPS is the frame rate at maximum OPPs, ignoring heat: the gap
	// to SustainableFPS is what throttling will eventually take away.
	PeakFPS float64
	// CPUFreqHz and GPUFreqHz are the OPPs needed at SustainableFPS.
	CPUFreqHz, GPUFreqHz uint64
	// PowerW is the platform dynamic power at the sustainable point.
	PowerW float64
	// SteadyTempK is the fixed-point temperature at that power.
	SteadyTempK float64
}

// ForApp computes the thermal headroom of an app profile on a platform.
// The model matches the simulator's: the CPU demand fps·cpuCost runs on
// the chosen cluster under its OPP ladder, the GPU demand fps·gpuCost
// on the GPU ladder; idle and memory power are included; leakage is
// handled by the fixed-point analysis.
func ForApp(plat *platform.Platform, pr Profile, limitK float64) (Analysis, error) {
	if plat == nil {
		return Analysis{}, errors.New("headroom: nil platform")
	}
	if err := pr.validate(); err != nil {
		return Analysis{}, err
	}
	if limitK == 0 {
		limitK = plat.ThermalLimitK()
	}
	params, err := plat.StabilityParams()
	if err != nil {
		return Analysis{}, err
	}
	threads := pr.Threads
	if threads == 0 {
		threads = 1
	}
	cpuDom := platform.DomLittle
	if pr.OnBig {
		cpuDom = platform.DomBig
	}

	// peak: the fps achievable at maximum OPPs.
	peak := math.Inf(1)
	if pr.CPUCyclesPerFrame > 0 {
		capHz := float64(plat.Domain(cpuDom).Table().Max().FreqHz) * float64(minInt(threads, plat.Cores(cpuDom)))
		peak = math.Min(peak, capHz/pr.CPUCyclesPerFrame)
	}
	if pr.GPUCyclesPerFrame > 0 {
		peak = math.Min(peak, float64(plat.Domain(platform.DomGPU).Table().Max().FreqHz)/pr.GPUCyclesPerFrame)
	}

	// powerAt computes the platform dynamic power needed for fps.
	powerAt := func(fps float64) (float64, uint64, uint64, bool) {
		var cpuFreq, gpuFreq uint64
		total := 0.0
		for _, id := range platform.DomainIDs() {
			total += plat.Model(id).IdleW
		}
		achieved := 0.0
		if pr.CPUCyclesPerFrame > 0 {
			demand := fps * pr.CPUCyclesPerFrame
			table := plat.Domain(cpuDom).Table()
			perCore := demand / float64(minInt(threads, plat.Cores(cpuDom)))
			if perCore > float64(table.Max().FreqHz) {
				return 0, 0, 0, false
			}
			opp := table.Ceil(uint64(math.Ceil(perCore)))
			cpuFreq = opp.FreqHz
			util := demand / float64(opp.FreqHz)
			total += plat.Model(cpuDom).Dynamic(opp, util)
			achieved += demand
		}
		if pr.GPUCyclesPerFrame > 0 {
			demand := fps * pr.GPUCyclesPerFrame
			table := plat.Domain(platform.DomGPU).Table()
			if demand > float64(table.Max().FreqHz) {
				return 0, 0, 0, false
			}
			opp := table.Ceil(uint64(math.Ceil(demand)))
			gpuFreq = opp.FreqHz
			util := demand / float64(opp.FreqHz)
			total += plat.Model(platform.DomGPU).Dynamic(opp, util)
			achieved += demand
		}
		total += plat.MemPower(achieved)
		return total, cpuFreq, gpuFreq, true
	}

	sustainableAt := func(fps float64) bool {
		pd, _, _, ok := powerAt(fps)
		if !ok {
			return false
		}
		t, err := params.SteadyStateTemp(pd)
		return err == nil && t <= limitK
	}

	if !sustainableAt(0.5) {
		return Analysis{}, fmt.Errorf("headroom: platform cannot sustain even 0.5 FPS under %.1f K", limitK)
	}
	lo, hi := 0.5, peak
	if sustainableAt(peak) {
		lo = peak
	} else {
		for i := 0; i < 50; i++ {
			mid := 0.5 * (lo + hi)
			if sustainableAt(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	pd, cpuF, gpuF, _ := powerAt(lo)
	steady, err := params.SteadyStateTemp(pd)
	if err != nil {
		return Analysis{}, err
	}
	return Analysis{
		SustainableFPS: lo,
		PeakFPS:        peak,
		CPUFreqHz:      cpuF,
		GPUFreqHz:      gpuF,
		PowerW:         pd,
		SteadyTempK:    steady,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
