package workload

import (
	"fmt"
	"sort"

	"repro/internal/mibench"
	"repro/internal/snapbin"
)

// Snapshot support. Every app the sim layer can host implements
// SaveState and LoadState so engine snapshots capture workload progress
// (frame counts, RNG position, phase cursors) bit-exactly. ThreeDMark
// inherits FrameApp's implementation through embedding.

// SaveState serializes the frame app's mutable state: RNG position,
// phase cursor, scene multiplier, frame accounting, and FPS samples.
func (a *FrameApp) SaveState(w *snapbin.Writer) {
	seed, draws := a.src.State()
	w.PutI64(seed)
	w.PutU64(draws)
	w.PutInt(a.phaseIdx)
	w.PutF64(a.phaseStart)
	w.PutBool(a.done)
	w.PutF64(a.sceneMult)
	w.PutF64(a.nextScene)
	w.PutF64(a.frames)
	w.PutF64(a.bucketFrames)
	w.PutF64(a.bucketStart)
	w.PutF64s(a.fpsSamples)
	// phaseFPS in ascending-key order for a canonical byte stream.
	keys := make([]int, 0, len(a.phaseFPS))
	for k := range a.phaseFPS {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.PutInt(len(keys))
	for _, k := range keys {
		w.PutInt(k)
		w.PutF64s(a.phaseFPS[k])
	}
}

// LoadState restores state saved by SaveState into an app built from
// the same config.
func (a *FrameApp) LoadState(r *snapbin.Reader) error {
	seed := r.I64()
	draws := r.Draws()
	phaseIdx := r.Int()
	phaseStart := r.F64()
	done := r.Bool()
	sceneMult := r.F64()
	nextScene := r.F64()
	frames := r.F64()
	bucketFrames := r.F64()
	bucketStart := r.F64()
	fpsSamples := r.F64s(a.fpsSamples)
	nPhases := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("workload: app %q: %w", a.cfg.Name, err)
	}
	if phaseIdx < 0 || phaseIdx >= len(a.cfg.Phases) {
		return fmt.Errorf("workload: app %q: restored phase %d out of range", a.cfg.Name, phaseIdx)
	}
	// phaseFPS is keyed by phase index, so it holds at most one entry
	// per phase.
	if nPhases < 0 || nPhases > len(a.cfg.Phases) {
		return fmt.Errorf("workload: app %q: restored %d phase FPS series for %d phases", a.cfg.Name, nPhases, len(a.cfg.Phases))
	}
	phaseFPS := make(map[int][]float64, nPhases)
	for i := 0; i < nPhases; i++ {
		k := r.Int()
		if r.Err() == nil && (k < 0 || k >= len(a.cfg.Phases)) {
			return fmt.Errorf("workload: app %q: restored FPS series for phase %d out of range", a.cfg.Name, k)
		}
		phaseFPS[k] = r.F64s(nil)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("workload: app %q: %w", a.cfg.Name, err)
	}
	a.src.Restore(seed, draws)
	a.phaseIdx = phaseIdx
	a.phaseStart = phaseStart
	a.done = done
	a.sceneMult = sceneMult
	a.nextScene = nextScene
	a.frames = frames
	a.bucketFrames = bucketFrames
	a.bucketStart = bucketStart
	a.fpsSamples = fpsSamples
	a.phaseFPS = phaseFPS
	return nil
}

// clockSlackS absorbs the rounding between an app's view of the clock
// (the step's start plus dt) and the engine's (step count times dt).
const clockSlackS = 1e-6

// checkBucket rejects a one-second FPS bucket start outside
// (nowS-1, nowS]: each Advance closes buckets until the one holding the
// step's end, one per loop iteration.
func checkBucket(app string, startS, nowS float64) error {
	if !(startS > nowS-1-clockSlackS && startS <= nowS+clockSlackS) {
		return fmt.Errorf("workload: %s: FPS bucket start %v s outside (%v, %v] s", app, startS, nowS-1, nowS)
	}
	return nil
}

// CheckClock rejects restored clocks the app could not hold at engine
// time nowS: the FPS bucket start, and while the script runs the phase
// start (within one phase and one second before nowS) and, with scene
// variation, the next scene time (within one period after nowS).
func (a *FrameApp) CheckClock(nowS float64) error {
	if err := checkBucket(fmt.Sprintf("app %q", a.cfg.Name), a.bucketStart, nowS); err != nil {
		return err
	}
	if a.done {
		return nil
	}
	if d := a.cfg.Phases[a.phaseIdx].DurationS; !(a.phaseStart >= nowS-d-1 && a.phaseStart <= nowS+clockSlackS) {
		return fmt.Errorf("workload: app %q: phase %d start %v s outside [%v, %v] s", a.cfg.Name, a.phaseIdx, a.phaseStart, nowS-d-1, nowS)
	}
	if p := a.cfg.ScenePeriodS; a.cfg.SceneSigma != 0 && !(a.nextScene >= nowS-p-1 && a.nextScene <= nowS+p+clockSlackS) {
		return fmt.Errorf("workload: app %q: next scene at %v s, more than a period %v s from %v s", a.cfg.Name, a.nextScene, p, nowS)
	}
	return nil
}

// CheckClock rejects a restored FPS bucket start outside (nowS-1, nowS].
func (n *Nenamark) CheckClock(nowS float64) error {
	return checkBucket("nenamark", n.bucketStart, nowS)
}

// SaveState serializes BML's modeled and executed progress. The
// execution ratio is configuration, rebuilt by the caller.
func (b *BML) SaveState(w *snapbin.Writer) {
	w.PutF64(b.modeledCycles)
	w.PutU64(b.modeledIters)
	w.PutF64(b.executedBacklog)
	b.work.SaveState(w)
}

// LoadState restores state saved by SaveState.
func (b *BML) LoadState(r *snapbin.Reader) error {
	modeledCycles := r.F64()
	modeledIters := r.U64()
	executedBacklog := r.F64()
	if err := b.work.LoadState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("workload: bml: %w", err)
	}
	// Advance keeps the iteration count the whole iterations in the
	// modeled cycles and the backlog a fraction of one iteration; the
	// next Advance executes their difference, so a count or backlog
	// off those would run without bound.
	if !(modeledCycles >= 0 && modeledCycles < 1<<63) || modeledIters != uint64(modeledCycles/mibench.CyclesPerIteration) {
		return fmt.Errorf("workload: bml: restored %d iterations for %v modeled cycles", modeledIters, modeledCycles)
	}
	if !(executedBacklog >= 0 && executedBacklog < 1) {
		return fmt.Errorf("workload: bml: restored execution backlog %v outside [0, 1)", executedBacklog)
	}
	b.modeledCycles = modeledCycles
	b.modeledIters = modeledIters
	b.executedBacklog = executedBacklog
	return nil
}

// SaveState serializes the Nenamark run state: level cursor, failure
// window, termination, score, and frame accounting.
func (n *Nenamark) SaveState(w *snapbin.Writer) {
	w.PutInt(n.level)
	w.PutF64(n.levelStart)
	w.PutF64(n.failSeconds)
	w.PutBool(n.terminated)
	w.PutF64(n.score)
	w.PutF64(n.frames)
	w.PutF64(n.bucketFrames)
	w.PutF64(n.bucketStart)
	w.PutF64s(n.fpsSamples)
}

// LoadState restores state saved by SaveState.
func (n *Nenamark) LoadState(r *snapbin.Reader) error {
	level := r.Int()
	levelStart := r.F64()
	failSeconds := r.F64()
	terminated := r.Bool()
	score := r.F64()
	frames := r.F64()
	bucketFrames := r.F64()
	bucketStart := r.F64()
	fpsSamples := r.F64s(n.fpsSamples)
	if err := r.Err(); err != nil {
		return fmt.Errorf("workload: nenamark: %w", err)
	}
	n.level = level
	n.levelStart = levelStart
	n.failSeconds = failSeconds
	n.terminated = terminated
	n.score = score
	n.frames = frames
	n.bucketFrames = bucketFrames
	n.bucketStart = bucketStart
	n.fpsSamples = fpsSamples
	return nil
}

// SaveState serializes the replay cursor and achieved-work integrals.
func (r *ReplayApp) SaveState(w *snapbin.Writer) {
	w.PutInt(r.idx)
	w.PutF64(r.epoch)
	w.PutF64(r.cpuWork)
	w.PutF64(r.gpuWork)
}

// LoadState restores state saved by SaveState into an app built from
// the same trace.
func (r *ReplayApp) LoadState(rd *snapbin.Reader) error {
	idx := rd.Int()
	epoch := rd.F64()
	cpuWork := rd.F64()
	gpuWork := rd.F64()
	if err := rd.Err(); err != nil {
		return fmt.Errorf("workload: replay %q: %w", r.name, err)
	}
	if idx < 0 || idx >= len(r.samples) {
		return fmt.Errorf("workload: replay %q: restored cursor %d out of range", r.name, idx)
	}
	r.idx = idx
	r.epoch = epoch
	r.cpuWork = cpuWork
	r.gpuWork = gpuWork
	return nil
}
