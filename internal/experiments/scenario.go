package experiments

import (
	"repro/internal/appaware"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// Platform names the sweep engine accepts (aliases of the public
// facade's constants; the facade owns the vocabulary).
const (
	PlatformOdroid = mobisim.PlatformOdroidXU3
	PlatformNexus  = mobisim.PlatformNexus6P
)

// Governor arm names the sweep engine accepts.
const (
	GovAppAware = mobisim.GovAppAware
	GovIPA      = mobisim.GovIPA
	GovStepwise = mobisim.GovStepwise
	GovNone     = mobisim.GovNone
)

// Metric names the scenario runs report. Not every scenario produces every
// metric: frame-rate metrics follow the foreground workload, and
// bml_iterations appears only for "+bml" mixes.
const (
	MetricPeakC         = mobisim.MetricPeakC
	MetricAvgPowerW     = mobisim.MetricAvgPowerW
	MetricMigrations    = mobisim.MetricMigrations
	MetricGT1FPS        = mobisim.MetricGT1FPS
	MetricGT2FPS        = mobisim.MetricGT2FPS
	MetricMedianFPS     = mobisim.MetricMedianFPS
	MetricScore         = mobisim.MetricScore
	MetricBMLIterations = mobisim.MetricBMLIterations
)

// ScenarioSpec is a declarative simulation scenario: the experiment
// wrappers' view of the public facade's Scenario. A spec names a
// platform, a workload mix, a thermal-management arm and a seed; Run
// assembles the matching engine through pkg/mobisim exactly like the
// hand-rolled Section III/IV scenarios do.
type ScenarioSpec struct {
	// Platform is PlatformOdroid or PlatformNexus.
	Platform string
	// Workload is the foreground app ("3dmark", "nenamark", or one of
	// the five Nexus apps), with an optional "+bml" suffix adding the
	// basicmath-large background task.
	Workload string
	// Governor is the thermal-management arm (GovAppAware, GovIPA,
	// GovStepwise, GovNone).
	Governor string
	// LimitC is the appaware thermal limit in °C; 0 keeps the platform
	// default. Ignored by the other arms.
	LimitC float64
	// DurationS is the simulated duration.
	DurationS float64
	// Seed drives every random stream of the scenario.
	Seed int64
}

// scenario converts the spec to the facade's serializable form.
// Background kernels run model-only, the sweep convention the original
// spec builder used.
func (s ScenarioSpec) scenario() mobisim.Scenario {
	return mobisim.Scenario{
		Platform:     s.Platform,
		Workload:     s.Workload,
		Governor:     s.Governor,
		LimitC:       s.LimitC,
		DurationS:    s.DurationS,
		Seed:         s.Seed,
		ModelOnlyBML: true,
	}
}

// ScenarioRun is a completed scenario, retaining the engine and
// workloads for callers that need traces beyond the scalar metrics.
type ScenarioRun struct {
	// Engine holds traces, meter and scheduler state.
	Engine *sim.Engine
	// Foreground is the benchmark under study.
	Foreground workload.App
	// BML is the background task (nil without "+bml").
	BML *workload.BML
	// Controller is the application-aware governor (nil unless the
	// GovAppAware arm).
	Controller *appaware.Governor

	facade *mobisim.Engine
}

// Run assembles and executes the scenario through the public facade.
func (s ScenarioSpec) Run() (*ScenarioRun, error) {
	eng, err := mobisim.New(s.scenario())
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return &ScenarioRun{
		Engine:     eng.Sim(),
		Foreground: eng.Foreground(),
		BML:        eng.BackgroundBML(),
		Controller: eng.AppAware(),
		facade:     eng,
	}, nil
}

// Metrics extracts the scenario's scalar metric set: the thermal and
// power aggregates every run reports plus workload-specific scores.
func (r *ScenarioRun) Metrics() map[string]float64 {
	return r.facade.Metrics()
}
