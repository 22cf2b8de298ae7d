package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/appaware"
	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stability"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// Step-phase tracing.
//
// The engine's step loop calls five kinds of component through
// interfaces sim.Config accepts — workload.App, governor.Governor,
// thermgov.Governor, sim.Controller and sim.Observer — so the traced
// pass rebuilds each cell with sim.New exactly as mobisim.New does and
// wraps every one of them in a pass-through timer. The rest of a step
// runs on concrete types (scheduler, power model, fused thermal kernel,
// DVFS bookkeeping); sched, power and thermal are timed through
// read-only public entry points on the live lane state at sampled
// steps, and whatever cannot be timed without perturbing state stays in
// sim.core_lane_step_ns, the remainder. A clock read costs about as much
// as a short callback, so per-step callbacks (app demand and advance)
// are timed only on sampled steps, and every span subtracts the
// calibrated cost of its own clock reads.
//
// Each unit runs twice, alternately: untraced, on lanes built by
// mobisim.New, and traced. Both passes must end in bitwise-identical
// lane states — so tracing measures the same program — and the
// untraced lanes must reproduce the metrics the workload itself
// produced.

type phase int

const (
	phWorkload phase = iota
	phGovernor
	phAppaware
	phObserver
	phThermal
	phSched
	phPower
	numPhases
)

var phaseNames = [numPhases]string{"workload", "governor", "appaware", "observer", "thermal", "sched", "power"}

const (
	// sampleEvery is the stride of traced steps. Prime, so it does not
	// alias with workload frame or governor periods.
	sampleEvery = 17
	// previewReps repeats each read-only preview to amortize its clock
	// reads.
	previewReps = 4
)

var domainIDs = platform.DomainIDs()

// tracer accumulates one traced pass.
type tracer struct {
	timer    float64
	sampling bool
	// spanNs holds timed callback self time per phase.
	spanNs [numPhases]float64
	// previewNs holds per-lane-step preview estimates, summed over
	// previews lane previews.
	previewNs [numPhases]float64
	previews  int64

	stepNs                      float64
	laneSteps, sampledLaneSteps int64
}

func (t *tracer) span(p phase, t0 time.Time) {
	t.spanNs[p] += math.Max(0, float64(time.Since(t0).Nanoseconds())-t.timer)
}

// perLaneStep returns each phase's ns per lane-step.
func (t *tracer) perLaneStep() [numPhases]float64 {
	var out [numPhases]float64
	out[phWorkload] = ratio(t.spanNs[phWorkload], float64(t.sampledLaneSteps))
	for _, p := range []phase{phGovernor, phAppaware, phObserver} {
		out[p] = ratio(t.spanNs[p], float64(t.laneSteps))
	}
	for _, p := range []phase{phThermal, phSched, phPower} {
		out[p] = ratio(t.previewNs[p], float64(t.previews))
	}
	return out
}

// tracedLane is one cell built for the traced pass.
type tracedLane struct {
	eng   *sim.Engine
	fg    workload.App
	bml   *workload.BML
	aware *appaware.Governor
	apps  []*timedApp
	// shadow is an identical, separately compiled thermal network the
	// thermal preview steps in place of the lane's own.
	shadow *thermal.Network

	// changed is set when this step's scheduler inputs differ from the
	// previous step's, the condition under which the engine's
	// scheduling memo recomputes the assignment.
	changed bool
	caps    [2]sched.Capacity

	assign  sched.Assignment
	powers  []float64
	meter   power.Meter
	windows []*stats.Window
}

// noteCaps runs at the start of every step (from app 0's Demand).
func (l *tracedLane) noteCaps() {
	p := l.eng.Platform()
	c := [2]sched.Capacity{
		{FreqHz: p.Domain(platform.DomLittle).CurrentHz(), Cores: p.OnlineCores(platform.DomLittle)},
		{FreqHz: p.Domain(platform.DomBig).CurrentHz(), Cores: p.OnlineCores(platform.DomBig)},
	}
	l.changed = c != l.caps
	l.caps = c
}

// previewPower recomputes one step's power accounting on scratch state:
// per-domain dynamic, idle and leakage power at the live temperatures,
// memory power, the averaging-window pushes and a meter record.
func (l *tracedLane) previewPower(dt float64) {
	p := l.eng.Platform()
	var smp power.Sample
	for i := range l.powers {
		l.powers[i] = 0
	}
	dynTotal, demand := 0.0, 0.0
	for _, a := range l.apps {
		demand += a.last
	}
	for _, id := range domainIDs {
		model := p.Model(id)
		opp := p.Domain(id).CurrentOPP()
		nodeK, _ := p.Net.Temperature(p.Node(id))
		dyn := model.Dynamic(opp, l.eng.DomainUtil(id))
		tot := dyn + model.IdleW + model.Leakage.Power(opp.VoltageV, nodeK)
		smp.W[p.Rail(id)] += tot
		l.powers[p.Node(id)] += tot
		dynTotal += dyn + model.IdleW
	}
	memW := p.MemPower(demand)
	smp.W[power.RailMem] += memW
	dynTotal += memW
	for _, w := range l.windows {
		w.Push(dynTotal)
	}
	_ = l.meter.Record(smp, dt) // scratch meter; its error cannot change the estimate
}

// laneDigest hashes a lane's final state: node temperatures, the
// accumulators the metrics come from, and the workload scores.
func laneDigest(e *sim.Engine, fg workload.App, bml *workload.BML, aware *appaware.Governor) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(e.Now())
	for _, k := range e.Platform().Net.Temperatures() {
		put(k)
	}
	put(e.MaxTempSeenK())
	put(e.Meter().AveragePowerW())
	put(float64(e.Scheduler().Migrations()))
	if aware != nil {
		put(float64(aware.Migrations()))
		put(float64(aware.EventCount()))
	}
	if bml != nil {
		put(float64(bml.Iterations()))
	}
	switch a := fg.(type) {
	case *workload.ThreeDMark:
		put(a.GT1FPS())
		put(a.GT2FPS())
	case *workload.FrameApp:
		put(a.MedianFPS())
	}
	return h.Sum64()
}

// Pass-through timers.

type timedApp struct {
	workload.App
	t    *tracer
	lane *tracedLane
	// first marks the lane's first app, whose Demand opens each step.
	first bool
	last  float64
}

func (a *timedApp) Demand(nowS float64) workload.Demand {
	if a.first {
		a.lane.noteCaps()
	}
	var d workload.Demand
	if a.t.sampling {
		t0 := time.Now()
		d = a.App.Demand(nowS)
		a.t.span(phWorkload, t0)
	} else {
		d = a.App.Demand(nowS)
	}
	if d.CPUHz != a.last {
		a.lane.changed = true
		a.last = d.CPUHz
	}
	return d
}

func (a *timedApp) Advance(nowS, dt float64, r workload.Resources) {
	if !a.t.sampling {
		a.App.Advance(nowS, dt, r)
		return
	}
	t0 := time.Now()
	a.App.Advance(nowS, dt, r)
	a.t.span(phWorkload, t0)
}

type timedGov struct {
	governor.Governor
	t *tracer
}

func (g timedGov) Decide(in governor.Input, d *dvfs.Domain) uint64 {
	t0 := time.Now()
	f := g.Governor.Decide(in, d)
	g.t.span(phGovernor, t0)
	return f
}

type timedThermal struct {
	thermgov.Governor
	t *tracer
}

func (g timedThermal) Control(nowS, maxTempK float64, states []thermgov.DomainState) {
	t0 := time.Now()
	g.Governor.Control(nowS, maxTempK, states)
	g.t.span(phGovernor, t0)
}

type timedController struct {
	sim.Controller
	t *tracer
}

func (c timedController) Control(nowS float64, e *sim.Engine) {
	t0 := time.Now()
	c.Controller.Control(nowS, e)
	c.t.span(phAppaware, t0)
}

type timedObserver struct {
	sim.Observer
	t *tracer
}

func (o timedObserver) OnSample(s *sim.Sample) error {
	t0 := time.Now()
	err := o.Observer.OnSample(s)
	o.t.span(phObserver, t0)
	return err
}

// buildTraced assembles a cell with sim.New the way mobisim.New does —
// same platform, apps, governors and thermal arm — with every component
// wrapped in a timer. It covers the appaware and none thermal arms, the
// ones the workloads run.
func buildTraced(spec mobisim.Scenario, t *tracer) (*tracedLane, error) {
	// Normalize writes through the spec's pointers; work on copies.
	if spec.PlatformSpec != nil {
		ps := spec.PlatformSpec.Clone()
		spec.PlatformSpec = &ps
	}
	if spec.Generator != nil {
		g := *spec.Generator
		g.Base = slices.Clone(g.Base)
		spec.Generator = &g
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plat, err := compilePlatform(spec)
	if err != nil {
		return nil, err
	}
	shadow, err := compilePlatform(spec)
	if err != nil {
		return nil, err
	}
	govs, err := cpuGovernors(spec.Platform, spec.CPUGovernor)
	if err != nil {
		return nil, err
	}
	lane := &tracedLane{shadow: shadow.Net, powers: make([]float64, plat.Net.NumNodes())}

	fgName, withBML := mobisim.SplitWorkload(spec.Workload)
	fg, err := foregroundApp(fgName, spec)
	if err != nil {
		return nil, err
	}
	lane.fg = fg
	apps := []sim.AppSpec{{App: fg, PID: 1, Cluster: sched.Big, Threads: 2, RealTime: spec.Platform == mobisim.PlatformOdroidXU3}}
	if withBML {
		lane.bml = workload.NewBML()
		if spec.ModelOnlyBML {
			lane.bml.ExecuteRatio = 0
		}
		apps = append(apps, sim.AppSpec{App: lane.bml, PID: 2, Cluster: sched.Big, Threads: 1})
	}
	if spec.Platform == mobisim.PlatformNexus6P {
		apps = append(apps, sim.AppSpec{App: workload.MustFrameApp(workload.FrameAppConfig{
			Name:   "android-os",
			Phases: []workload.Phase{{DurationS: 60, CPUCyclesPerFrame: 4e6, TargetFPS: 30, TouchRatePerS: 0}},
			Loop:   true,
			Seed:   spec.Seed + 1,
		}), PID: 3, Cluster: sched.Little, Threads: 1})
	}
	for i := range apps {
		a := &timedApp{App: apps[i].App, t: t, lane: lane, first: i == 0}
		lane.apps = append(lane.apps, a)
		apps[i].App = a
	}
	for id, g := range govs {
		govs[id] = timedGov{Governor: g, t: t}
	}

	cfg := sim.Config{
		Platform:         plat,
		Apps:             apps,
		Governors:        govs,
		StepS:            spec.StepS,
		TracePeriodS:     spec.TracePeriodS,
		TaskWindowS:      spec.TaskWindowS,
		Observers:        []sim.Observer{timedObserver{Observer: &mobisim.StatsSink{}, t: t}},
		DisableRecording: true,
	}
	switch spec.Governor {
	case mobisim.GovAppAware:
		acfg := appaware.Config{HorizonS: 30, IntervalS: 0.1}
		if spec.LimitC != 0 {
			acfg.ThermalLimitK = thermal.ToKelvin(spec.LimitC)
		}
		lane.aware, err = appaware.New(acfg)
		if err != nil {
			return nil, err
		}
		cfg.Controller = timedController{Controller: lane.aware, t: t}
	case mobisim.GovNone:
		cfg.Thermal = timedThermal{Governor: thermgov.None{}, t: t}
	default:
		return nil, fmt.Errorf("traced build: thermal arm %q is not supported", spec.Governor)
	}
	lane.eng, err = sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if spec.PrewarmC > 0 {
		if err := plat.Prewarm(spec.PrewarmC); err != nil {
			return nil, err
		}
	}
	window := spec.TaskWindowS
	if window == 0 {
		window = sim.DefaultTaskWindowS
	}
	slots := int(math.Round(window / lane.eng.StepS()))
	for range apps {
		lane.windows = append(lane.windows, stats.NewWindow(slots))
	}
	return lane, nil
}

func compilePlatform(spec mobisim.Scenario) (*platform.Platform, error) {
	if spec.PlatformSpec != nil {
		return spec.PlatformSpec.Compile(spec.Seed)
	}
	return mobisim.LookupPlatform(spec.Platform, spec.Seed)
}

// cpuGovernors mirrors mobisim's CPUfreq governor sets.
func cpuGovernors(platformName, family string) (map[platform.DomainID]governor.Governor, error) {
	govs := make(map[platform.DomainID]governor.Governor, len(domainIDs))
	for _, id := range domainIDs {
		var g governor.Governor
		var err error
		switch {
		case family != mobisim.CPUGovStock:
			g, err = cpuGovernor(family)
		case id == platform.DomGPU && platformName == mobisim.PlatformNexus6P:
			g, err = governor.NewInteractive(governor.InteractiveConfig{
				TargetLoad:         0.90,
				HispeedFreqHz:      510e6,
				AboveHispeedDelayS: 1.0,
				BoostHoldS:         0.05,
				IntervalS:          0.02,
			})
		case id == platform.DomGPU:
			g, err = governor.NewOndemand(governor.DefaultOndemandConfig())
		default:
			g, err = governor.NewInteractive(governor.DefaultInteractiveConfig())
		}
		if err != nil {
			return nil, err
		}
		govs[id] = g
	}
	return govs, nil
}

func cpuGovernor(family string) (governor.Governor, error) {
	switch family {
	case mobisim.CPUGovInteractive:
		return governor.NewInteractive(governor.DefaultInteractiveConfig())
	case mobisim.CPUGovOndemand:
		return governor.NewOndemand(governor.DefaultOndemandConfig())
	case mobisim.CPUGovPerformance:
		return governor.Performance{}, nil
	case mobisim.CPUGovPowersave:
		return governor.Powersave{}, nil
	case mobisim.CPUGovConservative:
		return governor.NewConservative(governor.DefaultConservativeConfig())
	}
	return nil, fmt.Errorf("traced build: unknown cpu governor %q", family)
}

// foregroundApp mirrors mobisim's foreground workloads for the apps the
// workloads run: 3DMark and the generated kinds.
func foregroundApp(name string, spec mobisim.Scenario) (workload.App, error) {
	if kind, ok := strings.CutPrefix(name, mobisim.GenWorkloadPrefix); ok {
		gspec := workload.DefaultGenSpec(kind)
		if spec.Generator != nil {
			gspec = *spec.Generator
		}
		return gspec.Build(spec.Seed)
	}
	if name == "3dmark" {
		return workload.NewThreeDMark(spec.Seed), nil
	}
	return nil, fmt.Errorf("traced build: workload %q is not supported", name)
}

// runPhases runs every cold unit of specs untraced and traced, in
// alternation, until budget has passed (at least once each), checks
// fidelity, and sets the step-phase metrics. want holds the metric set
// the workload produced for each spec.
func runPhases(ctx context.Context, specs []mobisim.Scenario, want []map[string]float64, budget time.Duration, r *report) error {
	units, err := mobisim.PlanBatchUnits(specs, batchWidth, false)
	if err != nil {
		return err
	}
	tr := &tracer{timer: timerCost()}
	var pool sim.BatchPool
	var untracedNs float64
	var untracedSteps int64
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				return err
			}
			sub := make([]mobisim.Scenario, len(u.Idx))
			for k, i := range u.Idx {
				sub[k] = specs[i]
			}
			steps, _ := cellSteps(sub[0])
			ns, untraced, metrics, err := runUntraced(sub, &pool, steps)
			if err != nil {
				return err
			}
			untracedNs += ns
			untracedSteps += int64(steps * len(sub))
			traced, err := tr.runUnit(sub, &pool, steps)
			if err != nil {
				return err
			}
			if pass > 0 {
				continue
			}
			for k, i := range u.Idx {
				if untraced[k] != traced[k] {
					r.problem("traced lane %d ended in a different state than the untraced lane", i)
				}
				if !sameMetrics(metrics[k], want[i]) {
					r.problem("lockstep rerun of cell %d does not reproduce the workload's metrics", i)
				}
			}
		}
	}
	per := tr.perLaneStep()
	tracedStep := ratio(tr.stepNs, float64(tr.laneSteps))
	core := tracedStep
	for p, v := range per {
		r.set(phaseNames[p]+".lane_step_ns", v)
		core -= v
	}
	untracedStep := ratio(untracedNs, float64(untracedSteps))
	r.set("sim.lane_step_ns", untracedStep)
	r.set("sim.traced_lane_step_ns", tracedStep)
	r.set("sim.core_lane_step_ns", core)
	r.set("trace.overhead_ratio", ratio(tracedStep, untracedStep))
	return nil
}

// runUntraced runs one unit on lanes built by mobisim.New, coupled the
// way the batch runner couples them, and returns the stepping time, the
// lane digests and the lane metrics.
func runUntraced(specs []mobisim.Scenario, pool *sim.BatchPool, steps int) (float64, []uint64, []map[string]float64, error) {
	engines := make([]*mobisim.Engine, len(specs))
	lanes := make([]*sim.Engine, len(specs))
	var shared *stability.TransientCache
	for i, spec := range specs {
		eng, err := mobisim.New(spec, mobisim.WithoutRecording(), mobisim.WithObserver(&mobisim.StatsSink{}))
		if err != nil {
			return 0, nil, nil, err
		}
		if aware := eng.AppAware(); aware != nil {
			if shared == nil {
				shared = stability.NewTransientCache()
			}
			aware.ShareTransientCache(shared)
		}
		engines[i], lanes[i] = eng, eng.Sim()
	}
	be, err := pool.Get(lanes)
	if err != nil {
		return 0, nil, nil, err
	}
	t0 := time.Now()
	err = be.RunSteps(steps)
	ns := float64(time.Since(t0).Nanoseconds())
	pool.Put(be)
	if err != nil {
		return 0, nil, nil, err
	}
	digests := make([]uint64, len(specs))
	metrics := make([]map[string]float64, len(specs))
	for i, eng := range engines {
		digests[i] = laneDigest(eng.Sim(), eng.Foreground(), eng.BackgroundBML(), eng.AppAware())
		metrics[i] = eng.Metrics()
	}
	return ns, digests, metrics, nil
}

// runUnit runs one unit traced: steps in strides of sampleEvery, the
// last step of each stride with callback timing on, followed by the
// read-only previews of that step's sched, power and thermal work.
func (t *tracer) runUnit(specs []mobisim.Scenario, pool *sim.BatchPool, steps int) ([]uint64, error) {
	lanes := make([]*tracedLane, len(specs))
	engines := make([]*sim.Engine, len(specs))
	nets := make([]*thermal.Network, len(specs))
	var shared *stability.TransientCache
	for i, spec := range specs {
		l, err := buildTraced(spec, t)
		if err != nil {
			return nil, err
		}
		if l.aware != nil {
			if shared == nil {
				shared = stability.NewTransientCache()
			}
			l.aware.ShareTransientCache(shared)
		}
		lanes[i], engines[i], nets[i] = l, l.eng, l.shadow
	}
	shadow, err := thermal.NewBatchNetwork(nets)
	if err != nil {
		return nil, err
	}
	be, err := pool.Get(engines)
	if err != nil {
		return nil, err
	}
	defer pool.Put(be)
	B := len(lanes)
	dt := engines[0].StepS()
	packed := make([]float64, shadow.NumNodes()*B)
	for done := 0; done < steps; {
		n := min(sampleEvery-1, steps-done)
		t0 := time.Now()
		err := be.RunSteps(n)
		t.stepNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, err
		}
		done += n
		if done == steps {
			break
		}
		t.sampling = true
		t0 = time.Now()
		err = be.RunSteps(1)
		t.stepNs += float64(time.Since(t0).Nanoseconds())
		t.sampling = false
		if err != nil {
			return nil, err
		}
		done++
		t.sampledLaneSteps += int64(B)
		if err := t.preview(lanes, shadow, packed, dt); err != nil {
			return nil, err
		}
	}
	t.laneSteps += int64(steps * B)
	digests := make([]uint64, B)
	for i, l := range lanes {
		digests[i] = laneDigest(l.eng, l.fg, l.bml, l.aware)
	}
	return digests, nil
}

// preview times, on scratch state, the work the step just taken did in
// the fused thermal kernel, the scheduler and the power model.
func (t *tracer) preview(lanes []*tracedLane, shadow *thermal.BatchNetwork, packed []float64, dt float64) error {
	B := len(lanes)
	for li, l := range lanes {
		for i, k := range l.eng.Platform().Net.Temperatures() {
			if err := l.shadow.SetTemperature(thermal.NodeID(i), k); err != nil {
				return err
			}
		}
		for i, w := range l.eng.NodePowers() {
			packed[i*B+li] = w
		}
	}
	shadow.Gather()
	t0 := time.Now()
	for rep := 0; rep < previewReps; rep++ {
		if err := shadow.Step(dt, packed); err != nil {
			return err
		}
	}
	t.previewNs[phThermal] += math.Max(0, float64(time.Since(t0).Nanoseconds())-t.timer) / previewReps

	for _, l := range lanes {
		s := l.eng.Scheduler()
		t0 := time.Now()
		for rep := 0; rep < previewReps; rep++ {
			if err := s.AssignInto(l.caps[0], l.caps[1], &l.assign); err != nil {
				return err
			}
		}
		el := math.Max(0, float64(time.Since(t0).Nanoseconds())-t.timer) / previewReps
		if l.changed {
			// The engine reuses the previous assignment when no input
			// changed, so the scheduler only costs on changed steps.
			t.previewNs[phSched] += el
		}
		t0 = time.Now()
		for rep := 0; rep < previewReps; rep++ {
			l.previewPower(dt)
		}
		t.previewNs[phPower] += math.Max(0, float64(time.Since(t0).Nanoseconds())-t.timer) / previewReps
	}
	t.previews += int64(B)
	return nil
}
