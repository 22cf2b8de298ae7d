package mobisim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Built-in platform names a Scenario accepts; spec-defined platforms
// (Scenario.PlatformSpec or RegisterPlatform) extend the set.
const (
	// PlatformNexus6P is the Snapdragon 810 phone of the paper's
	// Section III.
	PlatformNexus6P = "nexus6p"
	// PlatformOdroidXU3 is the Exynos 5422 board of Section IV.
	PlatformOdroidXU3 = "odroid-xu3"
)

// WorkloadGen declares a stochastic foreground workload: a seeded
// phase-based demand generator (bursty, periodic, ramp or perturb).
// The "gen-<kind>" workload names run each kind's default spec; set
// Scenario.Generator to tune the knobs.
type WorkloadGen = workload.GenSpec

// GenWorkloadPrefix starts the generator-backed workload names
// ("gen-bursty", "gen-periodic", "gen-ramp", "gen-perturb").
const GenWorkloadPrefix = "gen-"

// genWorkloadKind maps a foreground workload name to its generator
// kind; ok is false for the hand-calibrated app models.
func genWorkloadKind(foreground string) (string, bool) {
	kind, found := strings.CutPrefix(foreground, GenWorkloadPrefix)
	if !found {
		return "", false
	}
	for _, k := range workload.GenKinds() {
		if kind == k {
			return kind, true
		}
	}
	return "", false
}

// Thermal-management arm names a Scenario accepts.
const (
	// GovAppAware is the paper's application-aware governor (Section IV).
	GovAppAware = "appaware"
	// GovIPA is ARM intelligent power allocation (Odroid-calibrated).
	GovIPA = "ipa"
	// GovStepwise is the Linux trip-point governor (Nexus-calibrated).
	GovStepwise = "stepwise"
	// GovNone disables thermal management (the "without throttling" arm).
	GovNone = "none"
)

// CPUfreq governor family names a Scenario accepts (CPUGovernor field).
const (
	// CPUGovStock is the platform's realistic stock set: interactive on
	// the CPU clusters plus the platform's GPU governor. It is the
	// default when CPUGovernor is empty.
	CPUGovStock = "stock"
	// CPUGovInteractive runs the Android interactive governor on every
	// domain.
	CPUGovInteractive = "interactive"
	// CPUGovOndemand runs the classic Linux load tracker on every domain.
	CPUGovOndemand = "ondemand"
	// CPUGovPerformance pins every domain at maximum frequency.
	CPUGovPerformance = "performance"
	// CPUGovPowersave pins every domain at minimum frequency.
	CPUGovPowersave = "powersave"
	// CPUGovConservative steps one OPP at a time on every domain.
	CPUGovConservative = "conservative"
)

// WorkloadSuffixBML appended to a workload name adds the
// basicmath-large background task to the scenario.
const WorkloadSuffixBML = "+bml"

// Prewarm starting temperatures of the paper's measured runs, applied
// when a Scenario leaves PrewarmC at 0.
const (
	// NexusPrewarmC matches Section III: a handled, unlocked phone
	// (Figure 1's traces start near 36°C).
	NexusPrewarmC = 36
	// OdroidPrewarmC matches Section IV: the board idling near 50°C
	// with the fan off.
	OdroidPrewarmC = 50
)

// Scenario is a declarative, JSON-serializable simulation scenario:
// everything that identifies a run. Engine-level knobs that do not
// change what is simulated (observers, DAQ attachment) are functional
// options on New instead.
//
// The zero value is not runnable; fill at least Platform, Workload and
// DurationS, then Normalize and Validate (ParseScenario and
// LoadScenario do both).
type Scenario struct {
	// Name optionally labels the scenario in logs and output files.
	Name string `json:"name,omitempty"`
	// Platform is PlatformNexus6P, PlatformOdroidXU3, the name of a
	// platform registered with RegisterPlatform, or the name of the
	// inline PlatformSpec below.
	Platform string `json:"platform"`
	// PlatformSpec optionally embeds a full declarative platform
	// description, making the scenario self-contained: no preset and no
	// prior registration needed. When set, Platform must be empty
	// (Normalize fills it) or equal to the spec's name.
	PlatformSpec *PlatformSpec `json:"platform_spec,omitempty"`
	// Workload is the foreground app ("3dmark", "nenamark", "paper.io",
	// "stickman-hook", "amazon", "hangouts", "facebook", or a generated
	// "gen-bursty", "gen-periodic", "gen-ramp", "gen-perturb"), with an
	// optional "+bml" suffix adding the basicmath-large background task.
	Workload string `json:"workload"`
	// Generator optionally tunes a generated foreground workload; valid
	// only when Workload names a "gen-*" kind, which must match
	// Generator.Kind. Nil runs the kind's default spec.
	Generator *WorkloadGen `json:"generator,omitempty"`
	// Governor is the thermal-management arm (GovAppAware, GovIPA,
	// GovStepwise, GovNone). Empty selects the platform's realistic
	// default: stepwise on the phone, IPA on the board.
	Governor string `json:"governor,omitempty"`
	// CPUGovernor selects the CPUfreq governor family for all domains;
	// empty or CPUGovStock keeps the platform's stock set.
	CPUGovernor string `json:"cpu_governor,omitempty"`
	// LimitC is the appaware thermal limit in °C; 0 keeps the platform
	// default. Ignored by the other arms.
	LimitC float64 `json:"limit_c,omitempty"`
	// DurationS is the simulated duration in seconds (required > 0).
	DurationS float64 `json:"duration_s"`
	// Seed drives every random stream of the scenario.
	Seed int64 `json:"seed"`
	// PrewarmC starts all thermal nodes at this temperature. 0 selects
	// the platform's paper-matched default (NexusPrewarmC or
	// OdroidPrewarmC); negative starts at ambient with no prewarm.
	PrewarmC float64 `json:"prewarm_c,omitempty"`
	// StepS overrides the integration step (0 = engine default, 1 ms).
	StepS float64 `json:"step_s,omitempty"`
	// TracePeriodS overrides the observer/trace sampling period
	// (0 = engine default, 100 ms).
	TracePeriodS float64 `json:"trace_period_s,omitempty"`
	// TaskWindowS overrides the per-task power averaging window
	// (0 = engine default, 1 s).
	TaskWindowS float64 `json:"task_window_s,omitempty"`
	// ModelOnlyBML decimates the background task's real kernel
	// execution to zero, keeping only the analytic model — what sweep
	// runs use for throughput. Modeled iterations (the reported metric)
	// are unaffected.
	ModelOnlyBML bool `json:"model_only_bml,omitempty"`
}

// foregroundWorkloads lists the accepted foreground app names: the
// hand-calibrated app models plus the seeded generator kinds.
var foregroundWorkloads = []string{
	"3dmark", "nenamark",
	"paper.io", "stickman-hook", "amazon", "hangouts", "facebook",
	"gen-bursty", "gen-periodic", "gen-ramp", "gen-perturb",
}

// KnownWorkloads returns the accepted foreground workload names; each
// also accepts the "+bml" suffix.
func KnownWorkloads() []string {
	return append([]string(nil), foregroundWorkloads...)
}

// KnownPlatforms returns the accepted platform names: the built-in
// presets plus any platforms registered with RegisterPlatform.
func KnownPlatforms() []string {
	return append([]string{PlatformNexus6P, PlatformOdroidXU3}, RegisteredPlatforms()...)
}

// KnownGovernors returns the accepted thermal-management arm names.
func KnownGovernors() []string {
	return []string{GovAppAware, GovIPA, GovStepwise, GovNone}
}

// SplitWorkload splits a workload mix into the foreground name and
// whether the "+bml" background task is attached.
func SplitWorkload(workload string) (foreground string, withBML bool) {
	return strings.CutSuffix(workload, WorkloadSuffixBML)
}

// Normalize fills defaults in place: the platform name from an inline
// spec, the platform-matched thermal arm when Governor is empty, the
// stock CPUfreq set when CPUGovernor is empty, and the paper-matched
// prewarm temperature when PrewarmC is 0. Spec-defined platforms
// default to GovNone (the calibrated kernel governors are preset-
// specific) and to no prewarm (ambient start). It is idempotent and
// leaves fields it cannot resolve (unknown platform) untouched for
// Validate to reject.
func (s *Scenario) Normalize() {
	if s.CPUGovernor == "" {
		s.CPUGovernor = CPUGovStock
	}
	if s.PlatformSpec != nil {
		s.PlatformSpec.Normalize()
		if s.Platform == "" {
			s.Platform = s.PlatformSpec.Name
		}
	}
	if s.Generator != nil {
		if kind, ok := genWorkloadKind(s.firstWorkload()); ok && s.Generator.Kind == "" {
			s.Generator.Kind = kind
		}
		s.Generator.Normalize()
	}
	switch s.Platform {
	case PlatformNexus6P:
		if s.Governor == "" {
			s.Governor = GovStepwise
		}
		if s.PrewarmC == 0 {
			s.PrewarmC = NexusPrewarmC
		}
	case PlatformOdroidXU3:
		if s.Governor == "" {
			s.Governor = GovIPA
		}
		if s.PrewarmC == 0 {
			s.PrewarmC = OdroidPrewarmC
		}
	default:
		if s.Governor == "" && (s.PlatformSpec != nil || platformKnown(s.Platform)) {
			s.Governor = GovNone
		}
	}
}

// firstWorkload returns the foreground name without the "+bml" suffix.
func (s Scenario) firstWorkload() string {
	fg, _ := SplitWorkload(s.Workload)
	return fg
}

// cloneRefs returns a copy whose pointer fields (inline platform spec,
// generator knobs) are deep-copied. Builders that take a Scenario by
// value clone first, so their normalization can never write through a
// spec the caller shares across scenarios.
func (s Scenario) cloneRefs() Scenario {
	if s.PlatformSpec != nil {
		ps := s.PlatformSpec.Clone()
		s.PlatformSpec = &ps
	}
	if s.Generator != nil {
		g := *s.Generator
		g.Base = slices.Clone(g.Base)
		s.Generator = &g
	}
	return s
}

// Step/window bounds Validate enforces. The engine integrates at steps
// in (0, MaxStepS]; the facade additionally refuses sub-microsecond
// steps and unboundedly long averaging windows, which the engine would
// accept only to drown in step count or window capacity.
const (
	// MinStepS is the finest integration step the facade accepts.
	MinStepS = 1e-6
	// MaxStepS mirrors the engine's upper step bound.
	MaxStepS = 0.1
	// MaxWindowSteps bounds task_window_s / step_s: the engine
	// preallocates one window slot per step per task.
	MaxWindowSteps = 1_000_000
	// MaxDurationSteps bounds duration_s / step_s, mirroring the
	// engine's own run bound so a Validate-accepted spec can never fail
	// duration-to-step conversion mid-sweep.
	MaxDurationSteps = sim.MaxRunSteps
)

// Validate checks the scenario without building anything. It accepts
// both normalized and raw specs (an empty Governor is only valid after
// Normalize resolved it, so Validate rejects it).
//
// Validate is deliberately at least as strict as the engine: any spec
// it accepts must also be accepted by New, so spec errors surface at
// the API boundary instead of mid-sweep (the fuzz harness pins this
// contract).
func (s Scenario) Validate() error {
	return s.validate(func(ps *PlatformSpec) error {
		_, err := ps.Compile(0)
		return err
	})
}

// validate is Validate with the inline platform spec's compile step
// supplied by the caller: Validate probes a compile, New compiles the
// platform it runs, and the first error is the same either way.
func (s Scenario) validate(compile func(*PlatformSpec) error) error {
	if s.PlatformSpec != nil {
		if isBuiltinPlatform(s.PlatformSpec.Name) {
			return fmt.Errorf("mobisim: inline platform spec name %q is reserved by a built-in preset", s.PlatformSpec.Name)
		}
		if err := s.PlatformSpec.ValidateFields(); err != nil {
			return err
		}
		if err := compile(s.PlatformSpec); err != nil {
			return err
		}
		// An empty Platform inherits the inline spec's name (what
		// Normalize fills in); only a conflicting name is an error.
		if s.Platform != "" && s.Platform != s.PlatformSpec.Name {
			return fmt.Errorf("mobisim: scenario platform %q does not match its inline spec %q (leave platform empty to inherit it)",
				s.Platform, s.PlatformSpec.Name)
		}
		// An inline spec may coincide with a registered name only when
		// it is the same spec: two result sets sharing a platform label
		// must come from the same physical model.
		if reg, ok := registeredSpec(s.PlatformSpec.Name); ok {
			norm := s.PlatformSpec.Clone()
			norm.Normalize()
			if !reflect.DeepEqual(reg, norm) {
				return fmt.Errorf("mobisim: inline platform spec %q differs from the spec registered under that name", s.PlatformSpec.Name)
			}
		}
	} else if !platformKnown(s.Platform) {
		return fmt.Errorf("mobisim: unknown platform %q (want %s, or register a spec)", s.Platform, strings.Join(KnownPlatforms(), ", "))
	}
	fg, _ := SplitWorkload(s.Workload)
	known := false
	for _, w := range foregroundWorkloads {
		if fg == w {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("mobisim: unknown workload %q (want one of %s, optionally with %q)",
			s.Workload, strings.Join(foregroundWorkloads, ", "), WorkloadSuffixBML)
	}
	if s.Generator != nil {
		kind, ok := genWorkloadKind(fg)
		if !ok {
			return fmt.Errorf("mobisim: generator knobs set, but workload %q is not a generated (%s*) workload", s.Workload, GenWorkloadPrefix)
		}
		if s.Generator.Kind != kind {
			return fmt.Errorf("mobisim: generator kind %q does not match workload %q (leave kind empty to inherit it)", s.Generator.Kind, s.Workload)
		}
		if err := s.Generator.Validate(); err != nil {
			return err
		}
	}
	switch s.Governor {
	case GovAppAware, GovNone:
	case GovIPA:
		// IPA's control temperature and power weights are Odroid
		// calibrations; on other platforms they would be silently
		// meaningless rather than wrong-looking.
		if s.Platform != PlatformOdroidXU3 {
			return fmt.Errorf("mobisim: governor %q is calibrated for %s only, not %s", GovIPA, PlatformOdroidXU3, s.Platform)
		}
	case GovStepwise:
		// The 44°C trip targets the Nexus package sensor; the Odroid
		// prewarms above it, so the arm would throttle from t=0.
		if s.Platform != PlatformNexus6P {
			return fmt.Errorf("mobisim: governor %q is calibrated for %s only, not %s", GovStepwise, PlatformNexus6P, s.Platform)
		}
	default:
		return fmt.Errorf("mobisim: unknown governor arm %q (want %s)", s.Governor, strings.Join(KnownGovernors(), ", "))
	}
	switch s.CPUGovernor {
	case "", CPUGovStock, CPUGovInteractive, CPUGovOndemand, CPUGovPerformance, CPUGovPowersave, CPUGovConservative:
	default:
		return fmt.Errorf("mobisim: unknown cpu governor %q", s.CPUGovernor)
	}
	if !(s.DurationS > 0) || math.IsInf(s.DurationS, 0) { // rejects NaN too
		return fmt.Errorf("mobisim: scenario duration must be positive and finite, got %v", s.DurationS)
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"limit_c", s.LimitC},
		{"prewarm_c", s.PrewarmC},
		{"step_s", s.StepS},
		{"trace_period_s", s.TracePeriodS},
		{"task_window_s", s.TaskWindowS},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("mobisim: %s must be finite, got %v", f.name, f.value)
		}
	}
	if s.StepS < 0 || s.TracePeriodS < 0 || s.TaskWindowS < 0 {
		return fmt.Errorf("mobisim: step/trace/window overrides must be >= 0 (0 = default)")
	}
	if s.StepS != 0 && (s.StepS < MinStepS || s.StepS > MaxStepS) {
		return fmt.Errorf("mobisim: step_s %v out of range [%v, %v]", s.StepS, MinStepS, MaxStepS)
	}
	step := s.StepS
	if step == 0 {
		step = sim.DefaultStepS
	}
	if s.TracePeriodS != 0 && s.TracePeriodS < step {
		return fmt.Errorf("mobisim: trace_period_s %v below the %v integration step", s.TracePeriodS, step)
	}
	if s.TaskWindowS != 0 && s.TaskWindowS < step {
		return fmt.Errorf("mobisim: task_window_s %v below the %v integration step", s.TaskWindowS, step)
	}
	window := s.TaskWindowS
	if window == 0 {
		window = sim.DefaultTaskWindowS
	}
	if window/step > MaxWindowSteps {
		return fmt.Errorf("mobisim: task_window_s %v spans %.0f steps of %v, exceeding the %d-step window bound",
			s.TaskWindowS, window/step, step, MaxWindowSteps)
	}
	// The math.MaxInt term mirrors the engine's 32-bit-platform guard,
	// where the int step count saturates far below MaxDurationSteps.
	if steps := s.DurationS / step; steps > MaxDurationSteps || steps > float64(math.MaxInt) {
		return fmt.Errorf("mobisim: duration_s %v spans %.0f steps of %v, exceeding the %.0f-step run bound",
			s.DurationS, steps, step, math.Min(MaxDurationSteps, float64(math.MaxInt)))
	}
	// Mirror the builder exactly: it converts a nonzero LimitC with
	// thermal.ToKelvin, and appaware rejects negative Kelvin limits.
	if s.Governor == GovAppAware && s.LimitC != 0 && thermal.ToKelvin(s.LimitC) < 0 {
		return fmt.Errorf("mobisim: limit_c %v is below absolute zero", s.LimitC)
	}
	return nil
}

// ParseScenario decodes, normalizes and validates a JSON scenario.
// Unknown fields are rejected so typos fail loudly instead of silently
// simulating the wrong thing.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("mobisim: decode scenario: %w", err)
	}
	if dec.More() {
		return Scenario{}, fmt.Errorf("mobisim: trailing data after scenario document")
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads and parses a scenario spec file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("mobisim: %w", err)
	}
	s, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("mobisim: %s: %w", path, err)
	}
	return s, nil
}

// JSON renders the scenario as indented JSON with a trailing newline.
// Encoding a parsed scenario and re-parsing it is stable: Normalize is
// idempotent, so decode → normalize → encode converges after one pass.
func (s Scenario) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("mobisim: encode scenario: %w", err)
	}
	return append(out, '\n'), nil
}
