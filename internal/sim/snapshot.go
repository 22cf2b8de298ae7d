package sim

import (
	"fmt"
	"math"

	"repro/internal/snapbin"
)

// Engine snapshot/restore: full bitwise serialization of the mutable
// simulation state into a versioned binary blob. A snapshot taken at
// step N and restored into a fresh engine built from the *same* config
// continues bit-identically to the uninterrupted run — the property the
// sweep warm-start path and its tests pin.
//
// The blob captures state, not structure: platform topology, OPP
// tables, app scripts, governor gains and step sizes all come from the
// config the restoring engine was built with. Restore performs
// structural sanity checks (slice lengths, PIDs, table membership) and
// bounds every clock a step loops on (the engine clock and its
// scheduled times, positive finite temperatures, the sensor's, DAQ's
// and apps' own clocks) and every RNG draw count it replays (relative
// to the snapshot's step count, checked against its clock first), so a
// corrupt blob fails to load instead of making Restore or the next
// step run unbounded. It cannot detect every config mismatch; restoring
// into an engine built from a different config is undefined.
//
// Not captured: recorded trace series (the RecordingSink) and DAQ
// sample series. Restored engines resume publishing observer samples
// on the original cadence, but history from before the snapshot exists
// only in the engine that recorded it. Warm-started sweep cells run
// with recording disabled, so nothing is lost on that path.

// Snapshot blob framing.
const (
	// snapMagic marks an engine snapshot blob ("MOBISNAP" as little-
	// endian u64 ASCII).
	snapMagic uint64 = 0x50414e5349424f4d
	// snapVersion is bumped whenever the serialized layout changes.
	snapVersion uint64 = 1
)

// Section tags: cheap misalignment insurance between components.
const (
	tagEngine uint64 = 0xE0 + iota
	tagWindows
	tagMeter
	tagPlatform
	tagThermal
	tagSensor
	tagDomains
	tagSched
	tagGovernors
	tagThermGov
	tagController
	tagApps
	tagDAQ
	tagEnd
)

// stateCodec is the per-component serialization contract. Components
// are not required to implement a shared exported interface; the sim
// layer type-asserts so that adding a stateful governor, controller or
// app without snapshot support fails loudly at Snapshot time instead
// of silently corrupting warm-started sweeps.
type stateCodec interface {
	SaveState(*snapbin.Writer)
	LoadState(*snapbin.Reader) error
}

// codecFor asserts that component implements stateCodec.
func codecFor(role string, component interface{ Name() string }) (stateCodec, error) {
	c, ok := component.(stateCodec)
	if !ok {
		return nil, fmt.Errorf("sim: %s %q does not implement snapshot state save/load", role, component.Name())
	}
	return c, nil
}

// Snapshot serializes the engine's complete mutable state into a fresh
// versioned blob. See SnapshotTo for the reusable-buffer form.
func (e *Engine) Snapshot() ([]byte, error) {
	var w snapbin.Writer
	if err := e.SnapshotTo(&w); err != nil {
		return nil, err
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// SnapshotTo appends the engine's snapshot to w without resetting it;
// callers that reuse a Writer across snapshots (the sweep sentinel
// loop) Reset it themselves. The only error source is a component that
// does not implement state serialization.
func (e *Engine) SnapshotTo(w *snapbin.Writer) error {
	w.PutU64(snapMagic)
	w.PutU64(snapVersion)

	// Engine scalar state.
	w.PutTag(tagEngine)
	w.PutF64(e.now)
	w.PutU64(e.stepCount)
	for i := 0; i < 3; i++ {
		w.PutF64(e.nextGovS[i])
		w.PutF64(e.utilAccum[i])
		w.PutF64(e.loadAccum[i])
		w.PutF64(e.utilTime[i])
		w.PutBool(e.touched[i])
		w.PutF64(e.lastUtil[i])
		w.PutF64(e.lastLoad[i])
	}
	w.PutF64(e.nextThermS)
	w.PutF64(e.nextCtrlS)
	w.PutF64(e.nextTraceS)
	w.PutF64(e.maxTempSeen)
	w.PutF64s(e.gpuDemand)
	w.PutF64s(e.gpuAchieved)
	w.PutF64s(e.powers)

	// Power windows: the dynamic-power window plus per-task windows in
	// app-spec order (the canonical PID order everywhere else).
	w.PutTag(tagWindows)
	e.dynWindow.SaveState(w)
	for _, a := range e.apps {
		w.PutInt(a.PID)
		e.taskPower[a.PID].SaveState(w)
	}

	w.PutTag(tagMeter)
	e.meter.SaveState(w)

	// Platform: hot-pluggable online core counts per domain.
	w.PutTag(tagPlatform)
	for _, id := range domainIDs {
		w.PutInt(e.plat.OnlineCores(id))
	}

	// Thermal network node temperatures.
	w.PutTag(tagThermal)
	w.PutF64s(e.plat.Net.TempsView())

	w.PutTag(tagSensor)
	e.plat.Sensor.SaveState(w)

	w.PutTag(tagDomains)
	for _, id := range domainIDs {
		e.plat.Domain(id).SaveState(w)
	}

	w.PutTag(tagSched)
	e.sched.SaveState(w)

	w.PutTag(tagGovernors)
	for _, id := range domainIDs {
		c, err := codecFor("governor", e.cfg.Governors[id])
		if err != nil {
			return err
		}
		c.SaveState(w)
	}

	w.PutTag(tagThermGov)
	w.PutBool(e.cfg.Thermal != nil)
	if e.cfg.Thermal != nil {
		c, err := codecFor("thermal governor", e.cfg.Thermal)
		if err != nil {
			return err
		}
		c.SaveState(w)
	}

	w.PutTag(tagController)
	w.PutBool(e.cfg.Controller != nil)
	if e.cfg.Controller != nil {
		c, err := codecFor("controller", e.cfg.Controller)
		if err != nil {
			return err
		}
		c.SaveState(w)
	}

	w.PutTag(tagApps)
	for _, a := range e.apps {
		c, err := codecFor("app", a.App)
		if err != nil {
			return err
		}
		w.PutInt(a.PID)
		c.SaveState(w)
	}

	w.PutTag(tagDAQ)
	w.PutBool(e.cfg.DAQ != nil)
	if e.cfg.DAQ != nil {
		e.cfg.DAQ.SaveState(w)
	}

	w.PutTag(tagEnd)
	return nil
}

// Restore loads a snapshot previously produced by Snapshot/SnapshotTo
// into an engine built from the same config. On success the engine
// continues bit-identically to the engine the snapshot was taken from;
// on error the engine may be partially overwritten and must not be
// stepped further.
func (e *Engine) Restore(blob []byte) error {
	r := snapbin.NewReader(blob)
	if magic := r.U64(); magic != snapMagic && r.Err() == nil {
		return fmt.Errorf("sim: restore: not an engine snapshot (magic %#x)", magic)
	}
	if v := r.U64(); v != snapVersion && r.Err() == nil {
		return fmt.Errorf("sim: restore: snapshot version %d, engine supports %d", v, snapVersion)
	}

	r.Tag(tagEngine)
	e.now = r.F64()
	e.stepCount = r.U64()
	// The draw bound grows with the step count, so the count must match
	// the clock (stepPost keeps them so) before any draw is replayed.
	if e.now != float64(e.stepCount)*e.cfg.StepS && r.Err() == nil {
		return fmt.Errorf("sim: restore: clock %v s is not step %d of %v s", e.now, e.stepCount, e.cfg.StepS)
	}
	r.SetDrawLimit(e.drawLimit())
	for i := 0; i < 3; i++ {
		e.nextGovS[i] = r.F64()
		e.utilAccum[i] = r.F64()
		e.loadAccum[i] = r.F64()
		e.utilTime[i] = r.F64()
		e.touched[i] = r.Bool()
		e.lastUtil[i] = r.F64()
		e.lastLoad[i] = r.F64()
	}
	e.nextThermS = r.F64()
	e.nextCtrlS = r.F64()
	e.nextTraceS = r.F64()
	e.maxTempSeen = r.F64()
	r.F64sInto(e.gpuDemand)
	r.F64sInto(e.gpuAchieved)
	r.F64sInto(e.powers)
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: restore: engine state: %w", err)
	}

	r.Tag(tagWindows)
	if err := e.dynWindow.LoadState(r); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	for _, a := range e.apps {
		pid := r.Int()
		if r.Err() == nil && pid != a.PID {
			return fmt.Errorf("sim: restore: task window PID %d, engine has %d", pid, a.PID)
		}
		if err := e.taskPower[a.PID].LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: task %d: %w", a.PID, err)
		}
	}

	r.Tag(tagMeter)
	if err := e.meter.LoadState(r); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}

	r.Tag(tagPlatform)
	for _, id := range domainIDs {
		n := r.Int()
		if r.Err() == nil {
			e.plat.SetOnlineCores(id, n)
		}
	}

	r.Tag(tagThermal)
	r.F64sInto(e.plat.Net.TempsView())
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: restore: thermal state: %w", err)
	}

	r.Tag(tagSensor)
	if err := e.plat.Sensor.LoadState(r); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}

	r.Tag(tagDomains)
	for _, id := range domainIDs {
		if err := e.plat.Domain(id).LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}

	r.Tag(tagSched)
	if err := e.sched.LoadState(r); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}

	r.Tag(tagGovernors)
	for _, id := range domainIDs {
		c, err := codecFor("governor", e.cfg.Governors[id])
		if err != nil {
			return err
		}
		if err := c.LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: domain %s: %w", id, err)
		}
	}

	r.Tag(tagThermGov)
	hadThermal := r.Bool()
	if r.Err() == nil && hadThermal != (e.cfg.Thermal != nil) {
		return fmt.Errorf("sim: restore: snapshot thermal-governor presence %v, engine has %v", hadThermal, e.cfg.Thermal != nil)
	}
	if e.cfg.Thermal != nil {
		c, err := codecFor("thermal governor", e.cfg.Thermal)
		if err != nil {
			return err
		}
		if err := c.LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}

	r.Tag(tagController)
	hadCtrl := r.Bool()
	if r.Err() == nil && hadCtrl != (e.cfg.Controller != nil) {
		return fmt.Errorf("sim: restore: snapshot controller presence %v, engine has %v", hadCtrl, e.cfg.Controller != nil)
	}
	if e.cfg.Controller != nil {
		c, err := codecFor("controller", e.cfg.Controller)
		if err != nil {
			return err
		}
		if err := c.LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}

	r.Tag(tagApps)
	for _, a := range e.apps {
		c, err := codecFor("app", a.App)
		if err != nil {
			return err
		}
		pid := r.Int()
		if r.Err() == nil && pid != a.PID {
			return fmt.Errorf("sim: restore: app PID %d, engine has %d", pid, a.PID)
		}
		if err := c.LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: app %d: %w", a.PID, err)
		}
	}

	r.Tag(tagDAQ)
	hadDAQ := r.Bool()
	if r.Err() == nil && hadDAQ != (e.cfg.DAQ != nil) {
		return fmt.Errorf("sim: restore: snapshot DAQ presence %v, engine has %v", hadDAQ, e.cfg.DAQ != nil)
	}
	if e.cfg.DAQ != nil {
		if err := e.cfg.DAQ.LoadState(r); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}

	r.Tag(tagEnd)
	if err := r.Err(); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("sim: restore: %d trailing bytes after snapshot", n)
	}
	if err := e.checkClocks(); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}

	// The batched fast path caches a signature of platform state;
	// restoring behind its back invalidates the memo.
	e.fast.sigValid = false
	return nil
}

// drawLimit bounds the RNG draw count any one counted source may carry
// in a snapshot of this engine at its restored step count. Restoring a
// source replays every draw, so the bound keeps a corrupt count from
// stalling Restore: replaying costs about as much as simulating to the
// snapshot's step, which a snapshot at a huge (clock-consistent) step
// count therefore still may. A source draws a handful of values per
// sample or control interval; the bound allows 1024 per step, four per
// DAQ sample, and 2^20 more.
func (e *Engine) drawLimit() uint64 {
	perStep := uint64(1 << 10)
	if e.cfg.DAQ != nil {
		perStep += 4 * uint64(math.Ceil(math.Min(e.cfg.StepS/e.cfg.DAQ.PeriodS(), 1<<40)))
	}
	if e.stepCount >= (math.MaxUint64-1<<20)/perStep {
		return math.MaxUint64
	}
	return 1<<20 + perStep*e.stepCount
}

// clockChecker is implemented by components whose restored state
// holds clocks of their own: CheckClock rejects a clock the component
// could not hold at engine time nowS, one its next Advance would chase
// for an unbounded number of iterations.
type clockChecker interface {
	CheckClock(nowS float64) error
}

// checkClocks rejects restored state that stepPost could not have
// produced and that would let the next step loop without bound: every
// scheduled time finite and at most one period after the clock (each
// is a decision time plus its period, and decision times never pass
// the clock), every node temperature finite and positive, and the
// sensor's, the DAQ's and every app's own clocks consistent with the
// time. Restore has already matched the clock to the step count.
func (e *Engine) checkClocks() error {
	due := func(what string, at, periodS float64) error {
		if math.IsNaN(at) || math.IsInf(at, 0) || at > e.now+periodS {
			return fmt.Errorf("%s due at %v s, more than its period %v s after %v s", what, at, periodS, e.now)
		}
		return nil
	}
	for _, id := range domainIDs {
		if err := due(fmt.Sprintf("domain %s governor", id), e.nextGovS[id], e.cfg.Governors[id].IntervalS()); err != nil {
			return err
		}
	}
	if e.cfg.Thermal != nil {
		if err := due("thermal governor", e.nextThermS, e.cfg.Thermal.IntervalS()); err != nil {
			return err
		}
	}
	if e.cfg.Controller != nil {
		if err := due("controller", e.nextCtrlS, e.cfg.Controller.IntervalS()); err != nil {
			return err
		}
	}
	if err := due("trace sample", e.nextTraceS, e.cfg.TracePeriodS); err != nil {
		return err
	}
	for i, t := range e.plat.Net.TempsView() {
		if !(t > 0) || math.IsInf(t, 0) {
			return fmt.Errorf("node %d temperature %v K is not finite and positive", i, t)
		}
	}
	if err := e.plat.Sensor.CheckClock(e.now); err != nil {
		return err
	}
	if e.cfg.DAQ != nil {
		if err := e.cfg.DAQ.CheckClock(e.now); err != nil {
			return err
		}
	}
	for _, a := range e.apps {
		if cc, ok := a.App.(clockChecker); ok {
			if err := cc.CheckClock(e.now); err != nil {
				return fmt.Errorf("app %d: %w", a.PID, err)
			}
		}
	}
	return nil
}

// StepsToControllerTick returns how many steps the engine takes before
// its custom controller's next decision is pending: 0 when it runs on
// the next step, -1 when the engine has no controller. It evaluates the
// step loop's own tick test at each upcoming step time, so a run of that
// many steps stops exactly at the tick. The sweep warm-start sentinel
// snapshots right before ticks: between two controller actions, cells
// that differ only in the controller's thermal limit are bit-identical,
// so a checkpoint taken there is a valid fork point for every cell
// whose controller has not acted yet.
func (e *Engine) StepsToControllerTick() int {
	if e.cfg.Controller == nil {
		return -1
	}
	n := 0
	for float64(e.stepCount+uint64(n))*e.cfg.StepS+1e-12 < e.nextCtrlS {
		n++
	}
	return n
}
