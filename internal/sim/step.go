// The engine's one step, split around the thermal integration so the
// scalar engine and the lockstep BatchEngine run the same code:
// Engine.RunSteps is stepPre, the lane's own Network.Step, then
// stepPost; a BatchEngine runs stepPre on every lane, one fused
// BatchNetwork step, then stepPost on every lane. The frozen
// pre-refactor step loop in frozen_diff_test.go is the oracle both
// paths are pinned to bit for bit.
package sim

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// fastPath is the flat, index-addressed view of an engine's per-step
// state: everything the step would otherwise reach through a map or an
// error-checked accessor, resolved once by initFast when the engine is
// built. The task-aligned slices are re-resolved whenever the
// scheduler's task-set epoch moves.
type fastPath struct {
	govs   [3]governor.Governor
	doms   [3]*dvfs.Domain
	models [3]*power.DomainModel
	nodes  [3]thermal.NodeID
	rails  [3]power.Rail

	temps   []float64 // live read-only view of the thermal network state
	memNode thermal.NodeID
	hasMem  bool

	// Aligned with Engine.apps; refreshed on scheduler epoch changes.
	tasks   []*sched.Task
	slots   []int // assignment slot per app (-1 when unknown)
	windows []*stats.Window
	epoch   uint64

	// sample carries the per-step power reading from stepPre to
	// stepPost.
	sample power.Sample

	// Scheduling memo. One step's assignment is a pure function of the
	// task demands/placements and the cluster capacities, and those
	// inputs are piecewise-constant (demands change on workload frame
	// boundaries, capacities on DVFS transitions), so most steps can
	// reuse the previous assignment verbatim — bitwise-equal by purity
	// — instead of recomputing it. sigValid gates the memo; it stays
	// false whenever the scheduler holds tasks the engine does not own,
	// whose demands the signature could not observe.
	sigValid   bool
	sigCaps    [2]sched.Capacity
	sigDemand  []float64
	sigCluster []sched.ClusterID
	sigRT      []bool
}

// StepS returns the engine's fixed integration step in seconds.
func (e *Engine) StepS() float64 { return e.cfg.StepS }

// initFast resolves the flat caches.
func (e *Engine) initFast() {
	fp := &e.fast
	for _, id := range domainIDs {
		fp.govs[id] = e.cfg.Governors[id]
		fp.doms[id] = e.plat.Domain(id)
		fp.models[id] = e.plat.Model(id)
		fp.nodes[id] = e.plat.Node(id)
		fp.rails[id] = e.plat.Rail(id)
	}
	fp.temps = e.plat.Net.TempsView()
	fp.memNode, fp.hasMem = e.plat.NodeByName("mem")
	fp.windows = make([]*stats.Window, len(e.apps))
	for i, a := range e.apps {
		fp.windows[i] = e.taskPower[a.PID]
	}
	fp.tasks = make([]*sched.Task, len(e.apps))
	fp.slots = make([]int, len(e.apps))
	fp.sigDemand = make([]float64, len(e.apps))
	fp.sigCluster = make([]sched.ClusterID, len(e.apps))
	fp.sigRT = make([]bool, len(e.apps))
	fp.refreshTasks(e)
}

// refreshTasks re-resolves the task pointers and assignment slots after
// a task-set layout change. Slots are positions in the scheduler's
// ascending-PID order — exactly the layout Assignment.sync stores its
// flat grants in — so slot i here indexes the assignment's grant
// arrays once AssignInto has synced to the same epoch.
func (fp *fastPath) refreshTasks(e *Engine) {
	for i, a := range e.apps {
		t, ok := e.sched.TaskRef(a.PID)
		if !ok {
			fp.tasks[i] = nil
			fp.slots[i] = -1
			continue
		}
		fp.tasks[i] = t
		fp.slots[i] = e.sched.Slot(a.PID)
	}
	fp.epoch = e.sched.Epoch()
	fp.sigValid = false
}

// stepPre runs one step's phases up to — and excluding — the
// thermal integration: demand, CPUfreq governors, thermal governor,
// controller, scheduling, GPU sharing, power, attribution, metering.
// It leaves the per-node power injection in e.powers and the power
// sample in e.fast.sample for stepPost.
func (e *Engine) stepPre() error {
	fp := &e.fast
	dt := e.cfg.StepS
	now := e.now
	if fp.epoch != e.sched.Epoch() {
		// The task set changed between steps, behind the engine's back.
		fp.refreshTasks(e)
	}

	// 1. Application demand.
	totalGPUDemand := 0.0
	anyTouch := false
	for i, a := range e.apps {
		d := a.App.Demand(now)
		t := fp.tasks[i]
		if t == nil {
			return fmt.Errorf("sched: unknown PID %d", a.PID)
		}
		if d.CPUHz < 0 || math.IsNaN(d.CPUHz) {
			return fmt.Errorf("sched: demand must be >= 0, got %v", d.CPUHz)
		}
		t.DemandHz = d.CPUHz
		e.gpuDemand[i] = 0
		if d.GPUHz > 0 {
			e.gpuDemand[i] = d.GPUHz
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
	for _, id := range domainIDs {
		if now+1e-12 < e.nextGovS[id] {
			continue
		}
		gov := fp.govs[id]
		util, load := e.lastUtil[id], e.lastLoad[id]
		if e.utilTime[id] > 0 {
			util = e.utilAccum[id] / e.utilTime[id]
			load = e.loadAccum[id] / e.utilTime[id]
		}
		dom := fp.doms[id]
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
	if e.cfg.Thermal != nil && now+1e-12 >= e.nextThermS {
		sensedK := e.SensorTempK()
		for i, id := range domainIDs {
			e.thermStates[i].UtilCores = e.lastUtil[id]
			e.thermStates[i].TempK = fp.temps[fp.nodes[id]]
			e.thermStates[i].OnlineCores = e.plat.OnlineCores(id)
		}
		e.cfg.Thermal.Control(now, sensedK, e.thermStates)
		e.nextThermS = now + e.cfg.Thermal.IntervalS()
	}

	// 4. Custom controller (the paper's governor) on its period.
	if e.cfg.Controller != nil && now+1e-12 >= e.nextCtrlS {
		e.cfg.Controller.Control(now, e)
		e.nextCtrlS = now + e.cfg.Controller.IntervalS()
	}

	// 5. CPU scheduling under current capacities, memoized: when every
	// assignment input — capacities, per-task demand, placement and
	// real-time flag — matches the previous step's, the previous grants
	// are still exact (scheduling is a pure function of those inputs),
	// so e.assign is left holding them untouched. The memo is bypassed
	// whenever the scheduler holds tasks beyond the engine's own apps:
	// their demands are outside the signature.
	little := sched.Capacity{FreqHz: fp.doms[platform.DomLittle].CurrentHz(), Cores: e.plat.OnlineCores(platform.DomLittle)}
	big := sched.Capacity{FreqHz: fp.doms[platform.DomBig].CurrentHz(), Cores: e.plat.OnlineCores(platform.DomBig)}
	fresh := !fp.sigValid ||
		little != fp.sigCaps[0] || big != fp.sigCaps[1] ||
		e.sched.Len() != len(e.apps) ||
		e.sched.Epoch() != fp.epoch
	if !fresh {
		for i, t := range fp.tasks {
			if t.DemandHz != fp.sigDemand[i] || t.Cluster != fp.sigCluster[i] || t.RealTime != fp.sigRT[i] {
				fresh = true
				break
			}
		}
	}
	if fresh {
		if err := e.sched.AssignInto(little, big, &e.assign); err != nil {
			return err
		}
		// Controllers can add or remove tasks; re-resolve the
		// task-aligned caches whenever the layout epoch moved. This
		// runs after AssignInto so slots always describe the
		// just-synced assignment.
		if fp.epoch != e.sched.Epoch() {
			fp.refreshTasks(e)
		}
		if e.sched.Len() == len(e.apps) {
			fp.sigCaps[0], fp.sigCaps[1] = little, big
			for i, t := range fp.tasks {
				if t == nil {
					fp.sigValid = false
					break
				}
				fp.sigDemand[i] = t.DemandHz
				fp.sigCluster[i] = t.Cluster
				fp.sigRT[i] = t.RealTime
				fp.sigValid = true
			}
		} else {
			fp.sigValid = false
		}
	}
	res := &e.assign

	// 6. GPU sharing: proportional to demand under the single GPU queue.
	gpuFreq := float64(fp.doms[platform.DomGPU].CurrentHz())
	for i := range e.gpuAchieved {
		e.gpuAchieved[i] = 0
	}
	gpuGrantTotal := 0.0
	if totalGPUDemand > 0 && gpuFreq > 0 {
		scale := 1.0
		if totalGPUDemand > gpuFreq {
			scale = gpuFreq / totalGPUDemand
		}
		// Accumulate in app-spec order: float addition is not
		// associative, and same-seed runs must be bitwise identical.
		for i := range e.apps {
			d := e.gpuDemand[i]
			if d == 0 {
				continue
			}
			g := d * scale
			e.gpuAchieved[i] = g
			gpuGrantTotal += g
		}
	}

	// 7. Per-domain power at current temperatures.
	utilCores := [3]float64{
		res.UtilCores(sched.Little),
		res.UtilCores(sched.Big),
		0,
	}
	if gpuFreq > 0 {
		utilCores[platform.DomGPU] = gpuGrantTotal / gpuFreq
	}
	maxLoad := [3]float64{}
	for i := range e.apps {
		task := fp.tasks[i]
		if task == nil {
			continue
		}
		var domID platform.DomainID
		switch task.Cluster {
		case sched.Little:
			domID = platform.DomLittle
		case sched.Big:
			domID = platform.DomBig
		default:
			continue
		}
		freq := float64(fp.doms[domID].CurrentHz())
		if freq <= 0 {
			continue
		}
		perCore := res.AchievedHzAt(fp.slots[i]) / (float64(task.Threads) * freq)
		if perCore > 1 {
			perCore = 1
		}
		if perCore > maxLoad[domID] {
			maxLoad[domID] = perCore
		}
	}

	sample := &fp.sample
	*sample = power.Sample{TimeS: now}
	totalAchievedHz := gpuGrantTotal
	for i := range e.apps {
		totalAchievedHz += res.AchievedHzAt(fp.slots[i])
	}
	domDynamic := [3]float64{}
	for i := range e.powers {
		e.powers[i] = 0
	}
	for _, id := range domainIDs {
		model := fp.models[id]
		opp := fp.doms[id].CurrentOPP()
		nodeK := fp.temps[fp.nodes[id]]
		dyn := model.Dynamic(opp, utilCores[id])
		tot := dyn + model.IdleW + model.Leakage.Power(opp.VoltageV, nodeK)
		domDynamic[id] = dyn
		sample.W[fp.rails[id]] += tot
		e.powers[fp.nodes[id]] += tot
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
	if fp.hasMem {
		e.powers[fp.memNode] += memW
	}
	dynTotal := memW
	for _, id := range domainIDs {
		dynTotal += domDynamic[id] + fp.models[id].IdleW
	}
	e.dynWindow.Push(dynTotal)

	// 8. Per-task power attribution.
	for i := range e.apps {
		task := fp.tasks[i]
		if task == nil {
			continue
		}
		var p float64
		switch task.Cluster {
		case sched.Little:
			p += domDynamic[platform.DomLittle] * res.BusyShareAt(fp.slots[i])
		case sched.Big:
			p += domDynamic[platform.DomBig] * res.BusyShareAt(fp.slots[i])
		}
		if gpuGrantTotal > 0 {
			p += domDynamic[platform.DomGPU] * e.gpuAchieved[i] / gpuGrantTotal
		}
		fp.windows[i].Push(p)
	}

	// 9a. Accounting that precedes thermal integration: meter and DAQ.
	if err := e.meter.Record(*sample, dt); err != nil {
		return err
	}
	if e.cfg.DAQ != nil {
		if err := e.cfg.DAQ.Observe(now, dt, sample.Total()); err != nil {
			return err
		}
	}
	return nil
}

// stepPost runs one step's phases after the thermal
// integration: DVFS advance, workload consumption, peak tracking, and
// trace-period sample publication.
func (e *Engine) stepPost() error {
	fp := &e.fast
	dt := e.cfg.StepS
	now := e.now
	res := &e.assign

	// 9b. DVFS transitions complete and residency accrues.
	for _, id := range domainIDs {
		fp.doms[id].Advance(now, dt)
	}

	// 10. Applications consume their grants.
	for i, a := range e.apps {
		a.App.Advance(now, dt, workload.Resources{
			CPUSpeedHz: res.AchievedHzAt(fp.slots[i]),
			GPUSpeedHz: e.gpuAchieved[i],
		})
	}

	// 11. Observation. The max scan mirrors Network.MaxTemperature so
	// ties resolve to the same node.
	maxK := fp.temps[0]
	for _, t := range fp.temps {
		if t > maxK {
			maxK = t
		}
	}
	if maxK > e.maxTempSeen {
		e.maxTempSeen = maxK
	}
	if now+1e-12 >= e.nextTraceS {
		if err := e.publishSample(now, fp.sample); err != nil {
			return err
		}
		e.nextTraceS = now + e.cfg.TracePeriodS
	}

	e.stepCount++
	e.now = float64(e.stepCount) * dt
	return nil
}
