package mobisim

import (
	"fmt"

	"repro/internal/appaware"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// builtinPlatformCtors maps preset names to their constructors. It is a
// variable (not a switch) so the frozen-constructor differential test
// can swap in the pre-spec-layer builders and prove sweep output is
// bitwise unchanged; production code never mutates it.
var builtinPlatformCtors = map[string]func(int64) *platform.Platform{
	PlatformNexus6P:   platform.Nexus6P,
	PlatformOdroidXU3: platform.OdroidXU3,
}

// LookupPlatform builds the named platform with the given seed: a
// built-in preset, or a spec registered with RegisterPlatform.
func LookupPlatform(name string, seed int64) (*Platform, error) {
	if ctor, ok := builtinPlatformCtors[name]; ok {
		return ctor(seed), nil
	}
	if spec, ok := registeredSpec(name); ok {
		return spec.Compile(seed)
	}
	return nil, fmt.Errorf("mobisim: unknown platform %q", name)
}

// New assembles a runnable engine from a declarative scenario. The spec
// is normalized and validated first, so callers building specs in code
// (rather than via ParseScenario) can pass them directly. Validation
// compiles an inline platform spec once, where Validate would probe it,
// and New keeps that platform; a named platform is looked up after.
// Prewarming happens here; Run only advances time.
func New(spec Scenario, opts ...Option) (*Engine, error) {
	spec = spec.cloneRefs()
	spec.Normalize()
	var plat *Platform
	err := spec.validate(func(ps *PlatformSpec) (err error) {
		plat, err = ps.Compile(spec.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	var bc buildConfig
	for _, opt := range opts {
		if err := opt(&bc); err != nil {
			return nil, err
		}
	}

	if plat == nil {
		if plat, err = LookupPlatform(spec.Platform, spec.Seed); err != nil {
			return nil, err
		}
	}
	govs, err := cpuGovernors(spec.Platform, spec.CPUGovernor)
	if err != nil {
		return nil, err
	}

	fgName, withBML := SplitWorkload(spec.Workload)
	fg, err := foregroundApp(fgName, spec.Generator, spec.Seed)
	if err != nil {
		return nil, err
	}
	// The Section IV scenarios register the foreground with the governor
	// so it is never a migration victim.
	realTime := spec.Platform == PlatformOdroidXU3
	apps := []sim.AppSpec{
		{App: fg, PID: 1, Cluster: sched.Big, Threads: 2, RealTime: realTime},
	}
	var bml *workload.BML
	if withBML {
		bml = workload.NewBML()
		if spec.ModelOnlyBML {
			// Decimating real kernel execution to zero keeps sweep
			// throughput high; modeled iterations — the reported metric —
			// are unaffected.
			bml.ExecuteRatio = 0
		}
		apps = append(apps, sim.AppSpec{App: bml, PID: 2, Cluster: sched.Big, Threads: 1})
	}
	if spec.Platform == PlatformNexus6P {
		apps = append(apps, sim.AppSpec{App: nexusOSBackground(spec.Seed), PID: 3, Cluster: sched.Little, Threads: 1})
	}

	cfg := sim.Config{
		Platform:         plat,
		Apps:             apps,
		Governors:        govs,
		StepS:            firstNonZero(bc.stepS, spec.StepS),
		TracePeriodS:     firstNonZero(bc.tracePeriodS, spec.TracePeriodS),
		TaskWindowS:      firstNonZero(bc.taskWindowS, spec.TaskWindowS),
		DAQ:              bc.daq,
		Observers:        bc.observers,
		DisableRecording: bc.disableRecording,
	}

	var aware *appaware.Governor
	switch spec.Governor {
	case GovAppAware:
		acfg := appaware.Config{HorizonS: 30, IntervalS: 0.1}
		if spec.LimitC != 0 {
			acfg.ThermalLimitK = thermal.ToKelvin(spec.LimitC)
		}
		aware, err = appaware.New(acfg)
		if err != nil {
			return nil, err
		}
		cfg.Controller = aware // replaces the kernel thermal governor
	case GovIPA:
		tg, err := odroidIPA()
		if err != nil {
			return nil, err
		}
		cfg.Thermal = tg
	case GovStepwise:
		tg, err := nexusStepWise()
		if err != nil {
			return nil, err
		}
		cfg.Thermal = tg
	case GovNone:
		// Actively clears caps and never throttles — the paper's
		// "without throttling" arm.
		cfg.Thermal = thermgov.None{}
	}

	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if spec.PrewarmC > 0 {
		if err := plat.Prewarm(spec.PrewarmC); err != nil {
			return nil, err
		}
	}
	return &Engine{
		spec:  spec,
		sim:   eng,
		plat:  plat,
		apps:  apps,
		fg:    fg,
		bml:   bml,
		aware: aware,
		daq:   bc.daq,
	}, nil
}

// firstNonZero picks the option override over the spec value.
func firstNonZero(override, specValue float64) float64 {
	if override != 0 {
		return override
	}
	return specValue
}

// cpuGovernors builds the CPUfreq governor set for a platform: its
// stock set, or a uniform family when the scenario overrides it.
// Spec-defined platforms get the generic Linux arrangement as stock —
// interactive on both CPU clusters, ondemand on the GPU — the same
// shape as the board preset but without its calibrations.
func cpuGovernors(platformName, family string) (map[platform.DomainID]governor.Governor, error) {
	if family == "" || family == CPUGovStock {
		switch platformName {
		case PlatformNexus6P:
			return nexusCPUGovernors()
		default:
			return odroidCPUGovernors()
		}
	}
	govs := make(map[platform.DomainID]governor.Governor, 3)
	for _, id := range platform.DomainIDs() {
		g, err := buildCPUGovernor(family)
		if err != nil {
			return nil, err
		}
		govs[id] = g
	}
	return govs, nil
}

// buildCPUGovernor constructs one fresh governor of the given family.
func buildCPUGovernor(family string) (governor.Governor, error) {
	switch family {
	case CPUGovInteractive:
		return governor.NewInteractive(governor.DefaultInteractiveConfig())
	case CPUGovOndemand:
		return governor.NewOndemand(governor.DefaultOndemandConfig())
	case CPUGovPerformance:
		return governor.Performance{}, nil
	case CPUGovPowersave:
		return governor.Powersave{}, nil
	case CPUGovConservative:
		return governor.NewConservative(governor.DefaultConservativeConfig())
	default:
		return nil, fmt.Errorf("mobisim: unknown cpu governor %q", family)
	}
}

// nexusCPUGovernors builds the phone's stock CPUfreq governor set:
// interactive on both CPU clusters and a sustained-load-biased
// interactive on the Adreno, which climbs past 510 MHz only for
// sustained load — what spreads game residency across 510/600 MHz
// (the paper's Figure 2).
func nexusCPUGovernors() (map[platform.DomainID]governor.Governor, error) {
	bigGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		return nil, err
	}
	littleGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		return nil, err
	}
	gpuGov, err := governor.NewInteractive(governor.InteractiveConfig{
		TargetLoad:         0.90,
		HispeedFreqHz:      510e6,
		AboveHispeedDelayS: 1.0,
		BoostHoldS:         0.05, // the GPU barely reacts to touch itself
		IntervalS:          0.02,
	})
	if err != nil {
		return nil, err
	}
	return map[platform.DomainID]governor.Governor{
		platform.DomLittle: littleGov,
		platform.DomBig:    bigGov,
		platform.DomGPU:    gpuGov,
	}, nil
}

// odroidCPUGovernors builds the board's stock CPUfreq governor set:
// interactive on both CPU clusters, ondemand on the Mali GPU.
func odroidCPUGovernors() (map[platform.DomainID]governor.Governor, error) {
	bigGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		return nil, err
	}
	littleGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		return nil, err
	}
	gpuGov, err := governor.NewOndemand(governor.DefaultOndemandConfig())
	if err != nil {
		return nil, err
	}
	return map[platform.DomainID]governor.Governor{
		platform.DomLittle: littleGov,
		platform.DomBig:    bigGov,
		platform.DomGPU:    gpuGov,
	}, nil
}

// nexusStepWise builds the phone's default step-wise trip governor:
// a 44°C passive trip on the hottest on-die zone.
func nexusStepWise() (thermgov.Governor, error) {
	return thermgov.NewStepWise(thermgov.StepWiseConfig{
		TripK:       273.15 + 44,
		HysteresisK: 1,
		CriticalK:   273.15 + 95,
		IntervalS:   0.3,
	})
}

// odroidIPA builds the default thermal governor of the Odroid's Linux
// 3.10 kernel: trip points with ARM intelligent power allocation.
func odroidIPA() (thermgov.Governor, error) {
	return thermgov.NewIPA(thermgov.IPAConfig{
		ControlTempK:      273.15 + 66,
		SustainablePowerW: 2.05,
		KPo:               0.17,
		KPu:               0.6,
		KI:                0.02,
		IntegralClampW:    0.8,
		IntervalS:         0.1,
		Weights:           map[string]float64{"gpu": 1.5},
	})
}

// foregroundApp builds the named foreground workload. Generated
// ("gen-*") names synthesize a seeded stochastic app — the kind's
// default spec, or the scenario's Generator knobs when present.
func foregroundApp(name string, gen *WorkloadGen, seed int64) (workload.App, error) {
	if kind, ok := genWorkloadKind(name); ok {
		gspec := workload.DefaultGenSpec(kind)
		if gen != nil {
			gspec = *gen
		}
		return gspec.Build(seed)
	}
	switch name {
	case "3dmark":
		return workload.NewThreeDMark(seed), nil
	case "nenamark":
		return workload.NewNenamark(workload.DefaultNenamarkConfig())
	case "paper.io":
		return workload.PaperIO(seed), nil
	case "stickman-hook":
		return workload.StickmanHook(seed), nil
	case "amazon":
		return workload.Amazon(seed), nil
	case "hangouts":
		return workload.Hangouts(seed), nil
	case "facebook":
		return workload.Facebook(seed), nil
	default:
		return nil, fmt.Errorf("mobisim: unknown workload %q", name)
	}
}

// nexusOSBackground is a light OS/background task keeping the phone's
// little cluster realistic.
func nexusOSBackground(seed int64) *workload.FrameApp {
	return workload.MustFrameApp(workload.FrameAppConfig{
		Name: "android-os",
		Phases: []workload.Phase{
			{DurationS: 60, CPUCyclesPerFrame: 4e6, TargetFPS: 30, TouchRatePerS: 0},
		},
		Loop: true,
		Seed: seed + 1,
	})
}
