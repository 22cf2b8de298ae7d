// Package sim is the simulation engine that closes the loop the paper
// studies: applications generate demand, CPUfreq governors pick
// frequencies, the scheduler grants cycles, the power model converts
// activity and temperature into watts, the RC thermal network integrates
// temperatures, and thermal governors (plus optional custom controllers,
// like the paper's application-aware governor) react — all on a fixed
// deterministic time step.
package sim

import (
	"fmt"
	"math"

	"repro/internal/daq"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine defaults, applied by Config.normalize and mirrored by the
// pkg/mobisim facade's spec validation (which must stay at least as
// strict as the engine).
const (
	// DefaultStepS is the default integration step (1 ms).
	DefaultStepS = 0.001
	// DefaultTracePeriodS is the default trace sampling period (100 ms).
	DefaultTracePeriodS = 0.1
	// DefaultTaskWindowS is the default per-task power window (1 s).
	DefaultTaskWindowS = 1.0
	// MaxRunSteps bounds a single Run's duration-to-step conversion:
	// beyond it the float→int conversion would be implementation-defined
	// (and the run physically unfinishable anyway).
	MaxRunSteps = 1e15
)

// domainIDs and rails cache the substrate enumerations once: the step
// loop iterates them thousands of times per simulated second, and the
// enumeration helpers allocate a fresh slice per call.
var (
	domainIDs = platform.DomainIDs()
	rails     = power.Rails()
)

// AppSpec attaches one application to the simulation.
type AppSpec struct {
	// App is the workload model.
	App workload.App
	// PID is the unique process ID for the scheduler.
	PID int
	// Cluster is the initial CPU placement.
	Cluster sched.ClusterID
	// Threads bounds the app's CPU parallelism (>= 1).
	Threads int
	// RealTime registers the process with the governor so it is never a
	// migration victim (Section IV-B's registration interface).
	RealTime bool
}

// Controller is a custom platform controller invoked on its own period,
// with full engine visibility. The paper's application-aware governor
// is implemented as a Controller.
type Controller interface {
	// Name identifies the controller.
	Name() string
	// IntervalS is the control period (the paper uses 100 ms).
	IntervalS() float64
	// Control runs one control decision.
	Control(nowS float64, e *Engine)
}

// Config assembles a simulation.
type Config struct {
	// Platform is the device model (required).
	Platform *platform.Platform
	// Apps are the workloads to run (at least one).
	Apps []AppSpec
	// CPUGovernors maps each domain to its frequency governor
	// (required for all three domains).
	Governors map[platform.DomainID]governor.Governor
	// Thermal is the thermal governor; nil disables thermal control
	// entirely (note that thermgov.None is subtly different: it actively
	// clears any caps other agents set).
	Thermal thermgov.Governor
	// Controller is an optional custom controller (e.g. appaware).
	Controller Controller
	// StepS is the integration step (default 1 ms).
	StepS float64
	// TracePeriodS is the trace sampling period (default 100 ms).
	TracePeriodS float64
	// TaskWindowS is the per-task power averaging window the paper's
	// governor uses (default 1 s).
	TaskWindowS float64
	// DAQ optionally samples total platform power like the paper's
	// external instrument.
	DAQ *daq.Channel
	// Observers receive one Sample per trace period. The engine
	// publishes samples whether or not observers are attached, so the
	// observer set never influences the simulation's dynamics.
	Observers []Observer
	// DisableRecording skips the built-in RecordingSink, making the run
	// constant-memory: the trace getters then report no series, and only
	// the registered Observers see samples.
	DisableRecording bool
}

// normalize centralizes Config validation and defaulting: every
// default lives here, and every malformed field is rejected with a
// clear error instead of silently misbehaving downstream.
func (cfg *Config) normalize() error {
	if cfg.Platform == nil {
		return fmt.Errorf("sim: config needs a platform")
	}
	if len(cfg.Apps) == 0 {
		return fmt.Errorf("sim: config needs at least one app")
	}
	for i, a := range cfg.Apps {
		if a.App == nil {
			return fmt.Errorf("sim: app spec %d (PID %d) has nil app", i, a.PID)
		}
	}
	for _, id := range platform.DomainIDs() {
		if cfg.Governors[id] == nil {
			return fmt.Errorf("sim: missing governor for domain %s", id)
		}
	}
	if cfg.StepS == 0 {
		cfg.StepS = DefaultStepS
	}
	if math.IsNaN(cfg.StepS) || cfg.StepS <= 0 || cfg.StepS > 0.1 {
		return fmt.Errorf("sim: step %v out of range (0, 0.1]", cfg.StepS)
	}
	if cfg.TracePeriodS == 0 {
		cfg.TracePeriodS = DefaultTracePeriodS
	}
	if math.IsNaN(cfg.TracePeriodS) || cfg.TracePeriodS < cfg.StepS {
		return fmt.Errorf("sim: trace period %v below step %v", cfg.TracePeriodS, cfg.StepS)
	}
	if cfg.TaskWindowS == 0 {
		cfg.TaskWindowS = DefaultTaskWindowS
	}
	if math.IsNaN(cfg.TaskWindowS) || cfg.TaskWindowS < cfg.StepS {
		return fmt.Errorf("sim: task window %v below step %v", cfg.TaskWindowS, cfg.StepS)
	}
	return nil
}

// Engine is a running simulation. Build with New, advance with Run.
type Engine struct {
	cfg   Config
	plat  *platform.Platform
	sched *sched.Scheduler
	meter power.Meter

	now       float64
	stepCount uint64

	apps []AppSpec

	// Per-domain governor bookkeeping.
	nextGovS  [3]float64
	utilAccum [3]float64 // integral of utilCores since last decision
	loadAccum [3]float64 // integral of busiest-core load since last decision
	utilTime  [3]float64
	touched   [3]bool
	lastUtil  [3]float64 // most recent per-step utilization
	lastLoad  [3]float64 // most recent per-step busiest-core load

	nextThermS float64
	nextCtrlS  float64
	nextTraceS float64

	// Per-task window-averaged power (watts).
	taskPower map[int]*stats.Window

	// dynWindow averages the platform's non-leakage power (dynamic +
	// idle + memory) over the task window; the stability analysis takes
	// it as the Pd input.
	dynWindow *stats.Window

	// GPU share bookkeeping, indexed like apps: per-app GPU demand and
	// achieved GPU rate this step.
	gpuDemand   []float64
	gpuAchieved []float64

	// assign is the reusable scheduling result; sched.AssignInto fills
	// it in place every step.
	assign sched.Assignment

	// thermStates is the preallocated thermal-governor view, rebuilt
	// field-wise (never reallocated) on every governor tick.
	thermStates []thermgov.DomainState

	powers []float64 // scratch: per-node power injection

	// Observation: the step loop publishes sampleBuf to every observer
	// once per trace period; rec is the built-in recording sink (nil
	// when recording is disabled).
	observers   []Observer
	rec         *RecordingSink
	sampleBuf   Sample
	maxTempSeen float64

	// fast holds the flat index-addressed caches the step runs on
	// (see step.go).
	fast fastPath
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	e := &Engine{
		cfg:         cfg,
		plat:        cfg.Platform,
		sched:       sched.New(),
		apps:        append([]AppSpec(nil), cfg.Apps...),
		taskPower:   make(map[int]*stats.Window, len(cfg.Apps)),
		gpuDemand:   make([]float64, len(cfg.Apps)),
		gpuAchieved: make([]float64, len(cfg.Apps)),
		powers:      make([]float64, cfg.Platform.Net.NumNodes()),
	}
	winCap := int(math.Round(cfg.TaskWindowS / cfg.StepS))
	if winCap < 1 {
		winCap = 1
	}
	e.dynWindow = stats.NewWindow(winCap)
	for _, a := range cfg.Apps {
		threads := a.Threads
		if threads == 0 {
			threads = 1
		}
		if err := e.sched.Add(sched.Task{
			PID:      a.PID,
			Name:     a.App.Name(),
			Threads:  threads,
			Cluster:  a.Cluster,
			RealTime: a.RealTime,
		}); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		e.taskPower[a.PID] = stats.NewWindow(winCap)
	}

	// Preallocate the thermal governor's per-domain view: the constant
	// fields (domain, model, core count, hot-plug hook) are wired once,
	// and each governor tick only refreshes the dynamic ones, so the
	// tick allocates nothing.
	if cfg.Thermal != nil {
		e.thermStates = make([]thermgov.DomainState, 0, len(domainIDs))
		for _, id := range domainIDs {
			id := id
			e.thermStates = append(e.thermStates, thermgov.DomainState{
				Domain: e.plat.Domain(id),
				Model:  e.plat.Model(id),
				Cores:  e.plat.Cores(id),
				SetOnlineCores: func(n int) {
					e.plat.SetOnlineCores(id, n)
				},
			})
		}
	}

	if !cfg.DisableRecording {
		e.rec = NewRecordingSink(e.plat)
		e.observers = append(e.observers, e.rec)
	}
	e.observers = append(e.observers, cfg.Observers...)
	e.sampleBuf = Sample{
		NodeTempK: make([]float64, e.plat.Net.NumNodes()),
		RailW:     make([]float64, power.NumRails),
		FreqHz:    make([]uint64, len(domainIDs)),
	}
	e.initFast()
	return e, nil
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Platform returns the device model.
func (e *Engine) Platform() *platform.Platform { return e.plat }

// Scheduler returns the task scheduler (controllers migrate through it).
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// Meter returns the per-rail energy meter.
func (e *Engine) Meter() *power.Meter { return &e.meter }

// TaskAvgPowerW returns the window-averaged power attribution of a task
// (0 when the task is unknown or the window is empty). This is the
// "average utilization of each active process for a one-second window"
// signal of Section IV-B, expressed in watts.
func (e *Engine) TaskAvgPowerW(pid int) float64 {
	w, ok := e.taskPower[pid]
	if !ok {
		return 0
	}
	m, err := w.Mean()
	if err != nil {
		return 0
	}
	return m
}

// TaskAvgPowers returns window-averaged power for every task.
func (e *Engine) TaskAvgPowers() map[int]float64 {
	out := make(map[int]float64, len(e.taskPower))
	for pid := range e.taskPower {
		out[pid] = e.TaskAvgPowerW(pid)
	}
	return out
}

// NodePowers returns a copy of the most recent per-node power
// injection (W), indexed by thermal node ID. Skin-aware controllers
// combine it with Network.SteadyState to predict surface temperatures.
func (e *Engine) NodePowers() []float64 {
	return append([]float64(nil), e.powers...)
}

// DynamicPowerW returns the window-averaged non-leakage platform power
// (dynamic switching + idle + memory), the Pd input of the stability
// analysis. Returns 0 before the first step.
func (e *Engine) DynamicPowerW() float64 {
	m, err := e.dynWindow.Mean()
	if err != nil {
		return 0
	}
	return m
}

// SensorTempK reads the governor-facing temperature sensor at the
// current time.
func (e *Engine) SensorTempK() float64 {
	k, err := e.plat.Sensor.Read(e.now)
	if err != nil {
		return e.plat.AmbientK()
	}
	return k
}

// Recording returns the built-in recording sink, or nil when the
// engine was built with DisableRecording. The sink's lookups report
// (series, ok) so formatters can distinguish unknown names from empty
// traces.
func (e *Engine) Recording() *RecordingSink { return e.rec }

// NodeNames returns the thermal node names indexed by thermal.NodeID,
// matching Sample.NodeTempK.
func (e *Engine) NodeNames() []string {
	out := make([]string, e.plat.Net.NumNodes())
	for i := range out {
		out[i] = e.plat.Net.NodeName(thermal.NodeID(i))
	}
	return out
}

// NodeTempSeries returns the true temperature trace (°C) of a node.
// It returns nil for unknown node names or when recording is disabled;
// prefer Recording().NodeTempSeries for an explicit (series, ok) form.
func (e *Engine) NodeTempSeries(name string) *trace.Series {
	if e.rec == nil {
		return nil
	}
	s, _ := e.rec.NodeTempSeries(name)
	return s
}

// MaxTempSeries returns the hottest-node temperature trace (°C), the
// quantity the paper's Figure 8 plots (nil when recording is disabled).
func (e *Engine) MaxTempSeries() *trace.Series {
	if e.rec == nil {
		return nil
	}
	return e.rec.MaxTempSeries()
}

// SensorSeries returns the sensed-temperature trace (°C) (nil when
// recording is disabled).
func (e *Engine) SensorSeries() *trace.Series {
	if e.rec == nil {
		return nil
	}
	return e.rec.SensorSeries()
}

// TotalPowerSeries returns the total power trace (W) (nil when
// recording is disabled).
func (e *Engine) TotalPowerSeries() *trace.Series {
	if e.rec == nil {
		return nil
	}
	return e.rec.TotalPowerSeries()
}

// RailPowerSeries returns one rail's power trace (W). It returns nil
// for unknown rails or when recording is disabled; prefer
// Recording().RailPowerSeries for an explicit (series, ok) form.
func (e *Engine) RailPowerSeries(r power.Rail) *trace.Series {
	if e.rec == nil {
		return nil
	}
	s, _ := e.rec.RailPowerSeries(r)
	return s
}

// FreqSeries returns one domain's frequency trace (Hz). It returns nil
// for unknown domains or when recording is disabled; prefer
// Recording().FreqSeries for an explicit (series, ok) form.
func (e *Engine) FreqSeries(id platform.DomainID) *trace.Series {
	if e.rec == nil {
		return nil
	}
	s, _ := e.rec.FreqSeries(id)
	return s
}

// MaxTempSeenK returns the hottest true node temperature observed.
func (e *Engine) MaxTempSeenK() float64 { return e.maxTempSeen }

// DomainUtil returns the most recent per-step utilization (in cores) of
// a domain; thermal governors and controllers read it.
func (e *Engine) DomainUtil(id platform.DomainID) float64 { return e.lastUtil[id] }

// Run advances the simulation by durationS seconds.
func (e *Engine) Run(durationS float64) error {
	if durationS <= 0 || math.IsNaN(durationS) || math.IsInf(durationS, 0) {
		return fmt.Errorf("sim: run duration must be positive and finite, got %v", durationS)
	}
	steps := math.Round(durationS / e.cfg.StepS)
	// The math.MaxInt term keeps the int conversion in range on 32-bit
	// platforms, where MaxRunSteps alone would not.
	if steps > MaxRunSteps || steps > float64(math.MaxInt) {
		return fmt.Errorf("sim: duration %v spans %.0f steps of %v, exceeding the %.0f-step run bound",
			durationS, steps, e.cfg.StepS, math.Min(MaxRunSteps, float64(math.MaxInt)))
	}
	return e.RunSteps(int(steps))
}

// RunSteps advances the simulation by exactly steps fixed integration
// steps — the fast path sweep runners use to amortize the call overhead
// and skip duration-to-step rounding. RunSteps(0) is a no-op. Each step
// is stepPre, one power.ExpInto over the three staged leakage
// exponents, stepPower, the thermal network's RK4 step, then stepPost
// (step.go). The loop is allocation-free in steady state: every
// per-step quantity lives in a reused, index-addressed engine buffer
// or on the stack, and map views of any of them are only materialized
// by API accessors at the boundary.
func (e *Engine) RunSteps(steps int) error {
	if steps < 0 {
		return fmt.Errorf("sim: step count must be >= 0, got %d", steps)
	}
	var lk [3]float64
	for i := 0; i < steps; i++ {
		if err := e.stepPre(lk[:]); err != nil {
			return fmt.Errorf("sim: t=%.3fs: %w", e.now, err)
		}
		power.ExpInto(lk[:], lk[:])
		if err := e.stepPower(lk[:]); err != nil {
			return fmt.Errorf("sim: t=%.3fs: %w", e.now, err)
		}
		if err := e.plat.Net.Step(e.cfg.StepS, e.powers); err != nil {
			return fmt.Errorf("sim: t=%.3fs: %w", e.now, err)
		}
		if err := e.stepPost(); err != nil {
			return fmt.Errorf("sim: t=%.3fs: %w", e.now, err)
		}
	}
	return nil
}

// publishSample fills the reusable sample buffer with the current
// platform state and hands it to every observer.
func (e *Engine) publishSample(now float64, sample power.Sample) error {
	s := &e.sampleBuf
	s.TimeS = now
	for i := range s.NodeTempK {
		k, err := e.plat.Net.Temperature(thermal.NodeID(i))
		if err != nil {
			return err
		}
		s.NodeTempK[i] = k
	}
	maxK, _, err := e.plat.Net.MaxTemperature()
	if err != nil {
		return err
	}
	s.MaxTempK = maxK
	s.SensorK = e.SensorTempK()
	s.TotalW = sample.Total()
	for _, r := range rails {
		s.RailW[r] = sample.W[r]
	}
	for _, id := range domainIDs {
		s.FreqHz[id] = e.plat.Domain(id).CurrentHz()
	}
	for _, o := range e.observers {
		if err := o.OnSample(s); err != nil {
			return fmt.Errorf("observer: %w", err)
		}
	}
	return nil
}
