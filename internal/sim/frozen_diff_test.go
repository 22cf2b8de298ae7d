package sim_test

// Differential golden test for the allocation-free hot-path refactor.
//
// frozenEngine below is a frozen copy of the pre-refactor step loop —
// the [][]float64 RK4 thermal network, the map-based proportional-share
// scheduler assignment, and the exact orchestration order of
// sim.Engine.step — kept in test code so the behavioral reference can
// never move when the production hot path is rebuilt. The test replays
// the paper's two platforms (nexus6p under the step-wise trip governor,
// odroid-xu3 under IPA) through both loops and asserts bitwise-equal
// temperature, power and frequency traces.
//
// Any hot-path change that perturbs a single floating-point operation
// fails this test with the first diverging sample.

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// rawSample is one bitwise-comparable trace point (Kelvin, watts, hertz).
type rawSample struct {
	timeS   float64
	nodeK   []float64
	maxK    float64
	sensorK float64
	totalW  float64
	railW   [4]float64
	freqHz  [3]uint64
	// taskW and dynW are the window-averaged per-task and non-leakage
	// powers at the sample (TaskAvgPowers, DynamicPowerW): the inputs
	// the app-aware governor reads. nil taskW means not captured.
	taskW map[int]float64
	dynW  float64
}

// captureObserver copies every published engine sample verbatim, plus
// eng's power windows when eng is set.
type captureObserver struct {
	samples []rawSample
	eng     *sim.Engine
}

func (c *captureObserver) OnSample(s *sim.Sample) error {
	raw := rawSample{
		timeS:   s.TimeS,
		nodeK:   append([]float64(nil), s.NodeTempK...),
		maxK:    s.MaxTempK,
		sensorK: s.SensorK,
		totalW:  s.TotalW,
	}
	if c.eng != nil {
		raw.taskW = c.eng.TaskAvgPowers()
		raw.dynW = c.eng.DynamicPowerW()
	}
	copy(raw.railW[:], s.RailW)
	copy(raw.freqHz[:], s.FreqHz)
	c.samples = append(c.samples, raw)
	return nil
}

// --- frozen pre-refactor thermal network ([][]float64 rows, per-call RK4 scratch) ---

type frozenNode struct {
	capacitance float64
	gAmbient    float64
}

type frozenNet struct {
	nodes   []frozenNode
	g       [][]float64
	temps   []float64
	ambient float64
}

func newFrozenNet(ambientK float64) *frozenNet { return &frozenNet{ambient: ambientK} }

func (n *frozenNet) addNode(capacitance, gAmbient float64) int {
	id := len(n.nodes)
	n.nodes = append(n.nodes, frozenNode{capacitance: capacitance, gAmbient: gAmbient})
	n.temps = append(n.temps, n.ambient)
	for i := range n.g {
		n.g[i] = append(n.g[i], 0)
	}
	n.g = append(n.g, make([]float64, len(n.nodes)))
	return id
}

func (n *frozenNet) connect(a, b int, gWPerK float64) {
	n.g[a][b] = gWPerK
	n.g[b][a] = gWPerK
}

func (n *frozenNet) derivs(dst, temps, powers []float64) {
	for i := range n.nodes {
		q := powers[i]
		q -= n.nodes[i].gAmbient * (temps[i] - n.ambient)
		for j := range n.nodes {
			if g := n.g[i][j]; g != 0 {
				q -= g * (temps[i] - temps[j])
			}
		}
		dst[i] = q / n.nodes[i].capacitance
	}
}

// step is the seed RK4 integrator, allocating fresh scratch every call
// exactly like the pre-refactor thermal.Network.Step.
func (n *frozenNet) step(dt float64, powers []float64) {
	m := len(n.nodes)
	k1 := make([]float64, m)
	k2 := make([]float64, m)
	k3 := make([]float64, m)
	k4 := make([]float64, m)
	tmp := make([]float64, m)

	n.derivs(k1, n.temps, powers)
	for i := 0; i < m; i++ {
		tmp[i] = n.temps[i] + 0.5*dt*k1[i]
	}
	n.derivs(k2, tmp, powers)
	for i := 0; i < m; i++ {
		tmp[i] = n.temps[i] + 0.5*dt*k2[i]
	}
	n.derivs(k3, tmp, powers)
	for i := 0; i < m; i++ {
		tmp[i] = n.temps[i] + dt*k3[i]
	}
	n.derivs(k4, tmp, powers)
	for i := 0; i < m; i++ {
		n.temps[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

func (n *frozenNet) maxTemperature() float64 {
	best := n.temps[0]
	for _, t := range n.temps {
		if t > best {
			best = t
		}
	}
	return best
}

// --- frozen sensor (zero-order hold, seeded noise, quantization) ---

type frozenSensor struct {
	net        *frozenNet
	node       int
	periodS    float64
	noiseStdK  float64
	resolution float64
	rng        *rand.Rand

	nextSample float64
	lastValue  float64
	haveValue  bool
}

func (s *frozenSensor) read(nowS float64) float64 {
	if nowS+1e-12 >= s.nextSample || !s.haveValue {
		truth := s.net.temps[s.node]
		for s.nextSample <= nowS+1e-12 {
			s.nextSample += s.periodS
		}
		v := truth
		if s.noiseStdK > 0 {
			v += s.rng.NormFloat64() * s.noiseStdK
		}
		if s.resolution > 0 {
			v = math.Round(v/s.resolution) * s.resolution
		}
		s.lastValue = v
		s.haveValue = true
	}
	return s.lastValue
}

// --- frozen proportional-share scheduler assignment (map-based seed logic) ---

type frozenTask struct {
	app      workload.App
	pid      int
	cluster  sched.ClusterID
	threads  int
	realTime bool
	demandHz float64
}

type frozenAssignResult struct {
	achievedHz map[int]float64
	utilCores  map[sched.ClusterID]float64
	busyShare  map[int]float64
}

// frozenAssign is the seed Scheduler.Assign: real-time tasks first, the
// remainder split proportionally, iterated in ascending PID order.
func frozenAssign(tasks []*frozenTask, caps map[sched.ClusterID]sched.Capacity) frozenAssignResult {
	res := frozenAssignResult{
		achievedHz: make(map[int]float64, len(tasks)),
		utilCores:  make(map[sched.ClusterID]float64, 2),
		busyShare:  make(map[int]float64, len(tasks)),
	}
	for _, c := range sched.Clusters() {
		cp := caps[c]
		total := cp.TotalHz()
		freq := float64(cp.FreqHz)

		request := func(t *frozenTask) float64 {
			bound := freq * float64(t.threads)
			if t.demandHz < bound {
				return t.demandHz
			}
			return bound
		}

		var rtPIDs, normPIDs []int
		byPID := make(map[int]*frozenTask, len(tasks))
		order := make([]int, 0, len(tasks))
		for _, t := range tasks {
			byPID[t.pid] = t
			order = append(order, t.pid)
		}
		sort.Ints(order)
		rtReq := 0.0
		for _, pid := range order {
			t := byPID[pid]
			if t.cluster != c {
				continue
			}
			if t.realTime {
				rtPIDs = append(rtPIDs, pid)
				rtReq += request(t)
			} else {
				normPIDs = append(normPIDs, pid)
			}
		}
		rtScale := 1.0
		if rtReq > total && rtReq > 0 {
			rtScale = total / rtReq
		}
		granted := 0.0
		for _, pid := range rtPIDs {
			g := request(byPID[pid]) * rtScale
			res.achievedHz[pid] = g
			granted += g
		}

		remaining := total - granted
		if remaining < 0 {
			remaining = 0
		}
		normReq := 0.0
		for _, pid := range normPIDs {
			normReq += request(byPID[pid])
		}
		scale := 1.0
		if normReq > remaining {
			if normReq == 0 {
				scale = 0
			} else {
				scale = remaining / normReq
			}
		}
		for _, pid := range normPIDs {
			g := request(byPID[pid]) * scale
			res.achievedHz[pid] = g
			granted += g
		}

		if freq > 0 {
			res.utilCores[c] = granted / freq
		} else {
			res.utilCores[c] = 0
		}
		for _, pid := range append(append([]int(nil), rtPIDs...), normPIDs...) {
			if granted > 0 {
				res.busyShare[pid] = res.achievedHz[pid] / granted
			} else {
				res.busyShare[pid] = 0
			}
		}
	}
	return res
}

// --- frozen engine: the pre-refactor sim.Engine.step orchestration ---

type frozenEngine struct {
	stepS        float64
	tracePeriodS float64

	plat    *platform.Platform // domains, models, rails; Net/Sensor unused
	net     *frozenNet
	sensor  *frozenSensor
	govs    map[platform.DomainID]governor.Governor
	thermal thermgov.Governor
	apps    []*frozenTask

	now       float64
	stepCount uint64

	nextGovS  [3]float64
	utilAccum [3]float64
	loadAccum [3]float64
	utilTime  [3]float64
	touched   [3]bool
	lastUtil  [3]float64
	lastLoad  [3]float64

	nextThermS float64
	nextTraceS float64

	taskPower map[int]*stats.Window
	dynWindow *stats.Window
	meter     power.Meter

	powers      []float64
	gpuAchieved map[int]float64

	maxTempSeen float64
	samples     []rawSample
}

// newFrozenEngine wires the frozen loop from the same platform spec and
// app set the production engine is built from.
func newFrozenEngine(t *testing.T, plat *platform.Platform, apps []*frozenTask,
	govs map[platform.DomainID]governor.Governor, tg thermgov.Governor, prewarmC float64) *frozenEngine {
	t.Helper()
	spec := plat.Spec()
	net := newFrozenNet(thermal.ToKelvin(spec.AmbientC))
	nodeByName := make(map[string]int, len(spec.Nodes))
	for _, ns := range spec.Nodes {
		nodeByName[ns.Name] = net.addNode(ns.CapacitanceJPerK, ns.GAmbientWPerK)
	}
	for _, c := range spec.Couplings {
		net.connect(nodeByName[c.A], nodeByName[c.B], c.GWPerK)
	}
	prewarmK := thermal.ToKelvin(prewarmC)
	for i := range net.temps {
		net.temps[i] = prewarmK
	}
	sensor := &frozenSensor{
		net:        net,
		node:       nodeByName[spec.SensorNode],
		periodS:    spec.SensorPeriodS,
		noiseStdK:  spec.SensorNoiseK,
		resolution: spec.SensorResolutionK,
		rng:        rand.New(rand.NewSource(spec.Seed)),
	}
	const stepS, tracePeriodS, taskWindowS = 0.001, 0.1, 1.0
	winCap := int(math.Round(taskWindowS / stepS))
	fe := &frozenEngine{
		stepS:        stepS,
		tracePeriodS: tracePeriodS,
		plat:         plat,
		net:          net,
		sensor:       sensor,
		govs:         govs,
		thermal:      tg,
		apps:         apps,
		taskPower:    make(map[int]*stats.Window, len(apps)),
		dynWindow:    stats.NewWindow(winCap),
		powers:       make([]float64, len(net.nodes)),
		gpuAchieved:  make(map[int]float64, len(apps)),
	}
	for _, a := range apps {
		fe.taskPower[a.pid] = stats.NewWindow(winCap)
	}
	return fe
}

// windowMean mirrors the engine's window accessors: 0 for an empty
// window.
func windowMean(w *stats.Window) float64 {
	m, err := w.Mean()
	if err != nil {
		return 0
	}
	return m
}

func (e *frozenEngine) run(durationS float64) {
	steps := int(math.Round(durationS / e.stepS))
	for i := 0; i < steps; i++ {
		e.step()
	}
}

// step mirrors the pre-refactor sim.Engine.step section by section.
func (e *frozenEngine) step() {
	dt := e.stepS
	now := e.now

	// 1. Application demand.
	gpuDemand := make(map[int]float64, len(e.apps))
	totalGPUDemand := 0.0
	anyTouch := false
	for _, a := range e.apps {
		d := a.app.Demand(now)
		a.demandHz = d.CPUHz
		if d.GPUHz > 0 {
			gpuDemand[a.pid] = d.GPUHz
			totalGPUDemand += d.GPUHz
		}
		if d.Touch {
			anyTouch = true
		}
	}
	if anyTouch {
		for i := range e.touched {
			e.touched[i] = true
		}
	}

	// 2. CPUfreq governors on their own periods.
	for _, id := range platform.DomainIDs() {
		gov := e.govs[id]
		if now+1e-12 < e.nextGovS[id] {
			continue
		}
		util, load := e.lastUtil[id], e.lastLoad[id]
		if e.utilTime[id] > 0 {
			util = e.utilAccum[id] / e.utilTime[id]
			load = e.loadAccum[id] / e.utilTime[id]
		}
		dom := e.plat.Domain(id)
		freq := gov.Decide(governor.Input{
			NowS:        now,
			UtilCores:   util,
			MaxCoreLoad: load,
			OnlineCores: e.plat.OnlineCores(id),
			Touch:       e.touched[id],
		}, dom)
		dom.Request(now, freq)
		e.utilAccum[id], e.loadAccum[id], e.utilTime[id] = 0, 0, 0
		e.touched[id] = false
		e.nextGovS[id] = now + gov.IntervalS()
	}

	// 3. Thermal governor on its period, acting on the sensed temperature.
	if e.thermal != nil && now+1e-12 >= e.nextThermS {
		sensedK := e.sensor.read(now)
		states := make([]thermgov.DomainState, 0, 3)
		for _, id := range platform.DomainIDs() {
			nodeK := e.net.temps[e.plat.Node(id)]
			id := id
			states = append(states, thermgov.DomainState{
				Domain:      e.plat.Domain(id),
				Model:       e.plat.Model(id),
				UtilCores:   e.lastUtil[id],
				TempK:       nodeK,
				Cores:       e.plat.Cores(id),
				OnlineCores: e.plat.OnlineCores(id),
				SetOnlineCores: func(n int) {
					e.plat.SetOnlineCores(id, n)
				},
			})
		}
		e.thermal.Control(now, sensedK, states)
		e.nextThermS = now + e.thermal.IntervalS()
	}

	// 4. Custom controller: not part of the frozen scenarios.

	// 5. CPU scheduling under current capacities.
	caps := map[sched.ClusterID]sched.Capacity{
		sched.Little: {FreqHz: e.plat.Domain(platform.DomLittle).CurrentHz(), Cores: e.plat.OnlineCores(platform.DomLittle)},
		sched.Big:    {FreqHz: e.plat.Domain(platform.DomBig).CurrentHz(), Cores: e.plat.OnlineCores(platform.DomBig)},
	}
	res := frozenAssign(e.apps, caps)

	// 6. GPU sharing: proportional to demand under the single GPU queue.
	gpuFreq := float64(e.plat.Domain(platform.DomGPU).CurrentHz())
	for pid := range e.gpuAchieved {
		delete(e.gpuAchieved, pid)
	}
	gpuGrantTotal := 0.0
	if totalGPUDemand > 0 && gpuFreq > 0 {
		scale := 1.0
		if totalGPUDemand > gpuFreq {
			scale = gpuFreq / totalGPUDemand
		}
		for _, a := range e.apps {
			d, ok := gpuDemand[a.pid]
			if !ok {
				continue
			}
			g := d * scale
			e.gpuAchieved[a.pid] = g
			gpuGrantTotal += g
		}
	}

	// 7. Per-domain power at current temperatures.
	utilCores := [3]float64{
		res.utilCores[sched.Little],
		res.utilCores[sched.Big],
		0,
	}
	if gpuFreq > 0 {
		utilCores[platform.DomGPU] = gpuGrantTotal / gpuFreq
	}
	maxLoad := [3]float64{}
	for _, a := range e.apps {
		var domID platform.DomainID
		switch a.cluster {
		case sched.Little:
			domID = platform.DomLittle
		case sched.Big:
			domID = platform.DomBig
		default:
			continue
		}
		freq := float64(e.plat.Domain(domID).CurrentHz())
		if freq <= 0 {
			continue
		}
		perCore := res.achievedHz[a.pid] / (float64(a.threads) * freq)
		if perCore > 1 {
			perCore = 1
		}
		if perCore > maxLoad[domID] {
			maxLoad[domID] = perCore
		}
	}

	var sample power.Sample
	sample.TimeS = now
	totalAchievedHz := gpuGrantTotal
	for _, a := range e.apps {
		totalAchievedHz += res.achievedHz[a.pid]
	}
	domDynamic := [3]float64{}
	for i := range e.powers {
		e.powers[i] = 0
	}
	for _, id := range platform.DomainIDs() {
		dom := e.plat.Domain(id)
		model := e.plat.Model(id)
		opp := dom.CurrentOPP()
		nodeK := e.net.temps[e.plat.Node(id)]
		dyn := model.Dynamic(opp, utilCores[id])
		tot := dyn + model.IdleW + model.Leakage.Power(opp.VoltageV, nodeK)
		domDynamic[id] = dyn
		sample.W[e.plat.Rail(id)] += tot
		e.powers[e.plat.Node(id)] += tot
		load := maxLoad[id]
		if id == platform.DomGPU {
			load = utilCores[id]
		}
		e.lastUtil[id] = utilCores[id]
		e.lastLoad[id] = load
		e.utilAccum[id] += utilCores[id] * dt
		e.loadAccum[id] += load * dt
		e.utilTime[id] += dt
	}
	memW := e.plat.MemPower(totalAchievedHz)
	sample.W[power.RailMem] += memW
	if memID, ok := e.plat.NodeByName("mem"); ok {
		e.powers[memID] += memW
	}
	dynTotal := memW
	for _, id := range platform.DomainIDs() {
		dynTotal += domDynamic[id] + e.plat.Model(id).IdleW
	}
	e.dynWindow.Push(dynTotal)

	// 8. Per-task power attribution.
	for _, a := range e.apps {
		var p float64
		switch a.cluster {
		case sched.Little:
			p += domDynamic[platform.DomLittle] * res.busyShare[a.pid]
		case sched.Big:
			p += domDynamic[platform.DomBig] * res.busyShare[a.pid]
		}
		if gpuGrantTotal > 0 {
			p += domDynamic[platform.DomGPU] * e.gpuAchieved[a.pid] / gpuGrantTotal
		}
		e.taskPower[a.pid].Push(p)
	}

	// 9. Accounting: meter, thermal integration, DVFS latency.
	if err := e.meter.Record(sample, dt); err != nil {
		panic(err)
	}
	e.net.step(dt, e.powers)
	for _, id := range platform.DomainIDs() {
		e.plat.Domain(id).Advance(now, dt)
	}

	// 10. Applications consume their grants.
	for _, a := range e.apps {
		a.app.Advance(now, dt, workload.Resources{
			CPUSpeedHz: res.achievedHz[a.pid],
			GPUSpeedHz: e.gpuAchieved[a.pid],
		})
	}

	// 11. Observation on the trace period.
	if maxK := e.net.maxTemperature(); maxK > e.maxTempSeen {
		e.maxTempSeen = maxK
	}
	if now+1e-12 >= e.nextTraceS {
		raw := rawSample{
			timeS:   now,
			nodeK:   append([]float64(nil), e.net.temps...),
			maxK:    e.net.maxTemperature(),
			sensorK: e.sensor.read(now),
			totalW:  sample.Total(),
		}
		for _, r := range power.Rails() {
			raw.railW[r] = sample.W[r]
		}
		for _, id := range platform.DomainIDs() {
			raw.freqHz[id] = e.plat.Domain(id).CurrentHz()
		}
		raw.taskW = make(map[int]float64, len(e.taskPower))
		for pid, w := range e.taskPower {
			raw.taskW[pid] = windowMean(w)
		}
		raw.dynW = windowMean(e.dynWindow)
		e.samples = append(e.samples, raw)
		e.nextTraceS = now + e.tracePeriodS
	}

	e.stepCount++
	e.now = float64(e.stepCount) * dt
}

// --- scenario wiring shared by both loops ---

type diffScenario struct {
	name     string
	prewarmC float64

	newPlatform func() *platform.Platform
	newApps     func() []*frozenTask
	newGovs     func(t *testing.T) map[platform.DomainID]governor.Governor
	newThermal  func(t *testing.T) thermgov.Governor
}

const diffSeed = 7

// nexusOSBackgroundApp mirrors the facade's android-os background task.
func nexusOSBackgroundApp(seed int64) *workload.FrameApp {
	return workload.MustFrameApp(workload.FrameAppConfig{
		Name: "android-os",
		Phases: []workload.Phase{
			{DurationS: 60, CPUCyclesPerFrame: 4e6, TargetFPS: 30, TouchRatePerS: 0},
		},
		Loop: true,
		Seed: seed + 1,
	})
}

func interactiveGov(t *testing.T) governor.Governor {
	t.Helper()
	g, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func diffScenarios() []diffScenario {
	return []diffScenario{
		{
			name:        "nexus6p-paperio-stepwise",
			prewarmC:    36,
			newPlatform: func() *platform.Platform { return platform.Nexus6P(diffSeed) },
			newApps: func() []*frozenTask {
				return []*frozenTask{
					{app: workload.PaperIO(diffSeed), pid: 1, cluster: sched.Big, threads: 2},
					{app: nexusOSBackgroundApp(diffSeed), pid: 3, cluster: sched.Little, threads: 1},
				}
			},
			newGovs: func(t *testing.T) map[platform.DomainID]governor.Governor {
				gpuGov, err := governor.NewInteractive(governor.InteractiveConfig{
					TargetLoad:         0.90,
					HispeedFreqHz:      510e6,
					AboveHispeedDelayS: 1.0,
					BoostHoldS:         0.05,
					IntervalS:          0.02,
				})
				if err != nil {
					t.Fatal(err)
				}
				return map[platform.DomainID]governor.Governor{
					platform.DomLittle: interactiveGov(t),
					platform.DomBig:    interactiveGov(t),
					platform.DomGPU:    gpuGov,
				}
			},
			newThermal: func(t *testing.T) thermgov.Governor {
				tg, err := thermgov.NewStepWise(thermgov.StepWiseConfig{
					TripK:       273.15 + 44,
					HysteresisK: 1,
					CriticalK:   273.15 + 95,
					IntervalS:   0.3,
				})
				if err != nil {
					t.Fatal(err)
				}
				return tg
			},
		},
		{
			name:        "odroid-3dmark-bml-ipa",
			prewarmC:    50,
			newPlatform: func() *platform.Platform { return platform.OdroidXU3(diffSeed) },
			newApps: func() []*frozenTask {
				bml := workload.NewBML()
				bml.ExecuteRatio = 0
				return []*frozenTask{
					{app: workload.NewThreeDMark(diffSeed), pid: 1, cluster: sched.Big, threads: 2, realTime: true},
					{app: bml, pid: 2, cluster: sched.Big, threads: 1},
				}
			},
			newGovs: func(t *testing.T) map[platform.DomainID]governor.Governor {
				gpuGov, err := governor.NewOndemand(governor.DefaultOndemandConfig())
				if err != nil {
					t.Fatal(err)
				}
				return map[platform.DomainID]governor.Governor{
					platform.DomLittle: interactiveGov(t),
					platform.DomBig:    interactiveGov(t),
					platform.DomGPU:    gpuGov,
				}
			},
			newThermal: func(t *testing.T) thermgov.Governor {
				tg, err := thermgov.NewIPA(thermgov.IPAConfig{
					ControlTempK:      273.15 + 66,
					SustainablePowerW: 2.05,
					KPo:               0.17,
					KPu:               0.6,
					KI:                0.02,
					IntegralClampW:    0.8,
					IntervalS:         0.1,
					Weights:           map[string]float64{"gpu": 1.5},
				})
				if err != nil {
					t.Fatal(err)
				}
				return tg
			},
		},
	}
}

// TestStepLoopMatchesFrozenReference is the differential golden test:
// the production engine must reproduce the frozen pre-refactor step loop
// bit for bit on both platforms.
func TestStepLoopMatchesFrozenReference(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	const durationS = 10.0

	for _, sc := range diffScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// Frozen reference run.
			frozen := newFrozenEngine(t, sc.newPlatform(), sc.newApps(), sc.newGovs(t), sc.newThermal(t), sc.prewarmC)
			frozen.run(durationS)

			// Production run with independent instances of everything.
			plat := sc.newPlatform()
			apps := sc.newApps()
			specs := make([]sim.AppSpec, 0, len(apps))
			for _, a := range apps {
				specs = append(specs, sim.AppSpec{
					App: a.app, PID: a.pid, Cluster: a.cluster, Threads: a.threads, RealTime: a.realTime,
				})
			}
			cap := &captureObserver{}
			eng, err := sim.New(sim.Config{
				Platform:         plat,
				Apps:             specs,
				Governors:        sc.newGovs(t),
				Thermal:          sc.newThermal(t),
				Observers:        []sim.Observer{cap},
				DisableRecording: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := plat.Prewarm(sc.prewarmC); err != nil {
				t.Fatal(err)
			}
			cap.eng = eng
			if err := eng.Run(durationS); err != nil {
				t.Fatal(err)
			}

			compareTraces(t, frozen.samples, cap.samples)

			if got, want := eng.MaxTempSeenK(), frozen.maxTempSeen; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("max temperature seen diverged: frozen %v (%#x), engine %v (%#x)",
					want, math.Float64bits(want), got, math.Float64bits(got))
			}
			if !bytes.Equal(meterState(eng.Meter()), meterState(&frozen.meter)) {
				t.Errorf("energy meter diverged: frozen %v J, engine %v J", frozen.meter.TotalEnergyJ(), eng.Meter().TotalEnergyJ())
			}
		})
	}
}

// compareTraces asserts bitwise equality of every channel of every
// published sample — and of the power windows where both sides
// captured them — and reports the first divergence precisely.
func compareTraces(t *testing.T, frozen, live []rawSample) {
	t.Helper()
	if len(frozen) != len(live) {
		t.Fatalf("sample count diverged: frozen %d, engine %d", len(frozen), len(live))
	}
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range frozen {
		f, l := frozen[i], live[i]
		if !bitsEq(f.timeS, l.timeS) {
			t.Fatalf("sample %d: time diverged: frozen %v, engine %v", i, f.timeS, l.timeS)
		}
		if len(f.nodeK) != len(l.nodeK) {
			t.Fatalf("sample %d: node count diverged: frozen %d, engine %d", i, len(f.nodeK), len(l.nodeK))
		}
		for n := range f.nodeK {
			if !bitsEq(f.nodeK[n], l.nodeK[n]) {
				t.Fatalf("sample %d (t=%.1fs): node %d temperature diverged: frozen %v (%#x), engine %v (%#x)",
					i, f.timeS, n, f.nodeK[n], math.Float64bits(f.nodeK[n]), l.nodeK[n], math.Float64bits(l.nodeK[n]))
			}
		}
		if !bitsEq(f.maxK, l.maxK) {
			t.Fatalf("sample %d (t=%.1fs): max temperature diverged: frozen %v, engine %v", i, f.timeS, f.maxK, l.maxK)
		}
		if !bitsEq(f.sensorK, l.sensorK) {
			t.Fatalf("sample %d (t=%.1fs): sensor diverged: frozen %v, engine %v", i, f.timeS, f.sensorK, l.sensorK)
		}
		if !bitsEq(f.totalW, l.totalW) {
			t.Fatalf("sample %d (t=%.1fs): total power diverged: frozen %v, engine %v", i, f.timeS, f.totalW, l.totalW)
		}
		for r := range f.railW {
			if !bitsEq(f.railW[r], l.railW[r]) {
				t.Fatalf("sample %d (t=%.1fs): rail %s power diverged: frozen %v, engine %v",
					i, f.timeS, power.Rail(r), f.railW[r], l.railW[r])
			}
		}
		for d := range f.freqHz {
			if f.freqHz[d] != l.freqHz[d] {
				t.Fatalf("sample %d (t=%.1fs): domain %s frequency diverged: frozen %d, engine %d",
					i, f.timeS, platform.DomainID(d), f.freqHz[d], l.freqHz[d])
			}
		}
		if f.taskW == nil || l.taskW == nil {
			continue
		}
		if !bitsEq(f.dynW, l.dynW) {
			t.Fatalf("sample %d (t=%.1fs): dynamic power window diverged: frozen %v, engine %v", i, f.timeS, f.dynW, l.dynW)
		}
		if len(f.taskW) != len(l.taskW) {
			t.Fatalf("sample %d (t=%.1fs): task count diverged: frozen %d, engine %d", i, f.timeS, len(f.taskW), len(l.taskW))
		}
		for pid, fw := range f.taskW {
			if lw, ok := l.taskW[pid]; !ok || !bitsEq(fw, lw) {
				t.Fatalf("sample %d (t=%.1fs): task %d power window diverged: frozen %v, engine %v", i, f.timeS, pid, fw, lw)
			}
		}
	}
}
