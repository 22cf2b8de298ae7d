package mobisim

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"repro/internal/sim"
	"repro/internal/snapbin"
	"repro/internal/stability"
)

// The unit runner (BatchRunner.RunUnit) with content-addressed prefix
// warm start, the only plan of every executor: RunSweep and
// RunScenarios, the search evaluator and the simd daemon.
//
// Cells that differ only in the thermal limit follow bitwise-identical
// trajectories until the limit-aware governor's first limit-dependent
// control action: a control tick that takes no action mutates nothing
// that depends on the limit. While the sensor reads below the lowest
// limit in a group, the first action's time is monotone in the limit (a
// lower limit is crossed no later than a higher one). The runner
// exploits this:
//
//  1. PlanBatchUnits groups limit-aware cells by PrefixKey — the
//     content hash of everything but the limit — within a thermal
//     topology, duration and step size, so one fork step count serves
//     a group, and orders each group by effective limit. It packs
//     whole groups and cold cells into units by cell count, then folds
//     units whose first stages (one lane per group) fit the width, and
//     records each warm unit's groups. A cold cell is a group of one.
//     RunUnit runs the recorded groups and derives none itself.
//  2. Each group's sentinel — its first member, the one with the
//     lowest effective limit — runs the full horizon, snapshotting its
//     state right before each control tick. Its checkpoint becomes
//     final at the first tick where it acts or where its sensor reads
//     at or above its own limit: past that tick a member with a higher
//     limit may act first, so only states before it are shared by
//     every member.
//     A group of one has no member to fork, so its checkpoint is never
//     tracked. The sentinels of a unit advance together as lanes of
//     one lockstep engine.
//  3. When the checkpoint becomes final, right after that tick, every
//     other member is built fresh, restored from it and stepped over
//     the tick on a side engine; the members then join the unit's
//     running lockstep engine and its stability memo, and every lane
//     of the unit ends together at the horizon.
//  4. If it never becomes final, no member ever acts, and all members
//     are bitwise-identical runs: they share the sentinel's metrics
//     without simulating at all.
//
// Every lane is built exactly like RunScenarioMetrics builds its
// engine and lanes never interact, and forked members replay the exact
// remaining step count from a bitwise-exact restored state, so every
// metric set is byte-identical to a lone run of its cell (the sweep
// tests pin this).

// newBatchLane builds one lane engine exactly like RunScenarioMetrics
// does (recording disabled), attaching obs when non-nil. Observers
// never perturb the simulated dynamics, so an observed lane stays
// byte-identical to an unobserved one.
func newBatchLane(spec Scenario, obs Observer) (*Engine, error) {
	if obs != nil {
		return New(spec, WithoutRecording(), WithObserver(obs))
	}
	return New(spec, WithoutRecording())
}

// advanceChunked advances a run by exactly steps steps, polling ctx
// every at most CtxCheckSteps steps.
func advanceChunked(ctx context.Context, advance func(int) error, steps int) error {
	for done := 0; done < steps; {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(steps-done, CtxCheckSteps)
		if err := advance(n); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// sentinelRun is one group's shared-prefix simulation in flight.
type sentinelRun struct {
	facade *Engine
	aware  *AppAwareGovernor
	// limitK is the limit the sentinel's governor enforces.
	limitK float64
	// ckpt holds the snapshot taken at step ckptStep, in a buffer from
	// ckptBufs that release returns once the members have joined.
	ckpt     *snapbin.Writer
	ckptStep int
	// ticking marks a sentinel whose last advance was one control tick.
	ticking bool
	// final marks the checkpoint final: the sentinel acted, or its
	// sensor read at or above limitK, at the tick after it. A group of
	// one starts final: it has no member to fork.
	final bool
}

// ckptBufs recycles checkpoint buffers across sentinels and units: a
// checkpoint is a whole engine snapshot, and growing one afresh for
// every sentinel was most of a warm sweep's allocated bytes.
var ckptBufs = sync.Pool{New: func() any { return new(snapbin.Writer) }}

// checkpoint refreshes the sentinel's checkpoint in place, reusing its
// buffer.
func (s *sentinelRun) checkpoint(step int) error {
	if s.ckpt == nil {
		s.ckpt = ckptBufs.Get().(*snapbin.Writer)
	}
	s.ckpt.Reset()
	s.ckptStep = step
	return s.facade.Sim().SnapshotTo(s.ckpt)
}

// release hands the checkpoint buffer back to ckptBufs.
func (s *sentinelRun) release() {
	if s.ckpt != nil {
		ckptBufs.Put(s.ckpt)
		s.ckpt = nil
	}
}

// runUnitGroups executes one unit of facade scenarios split into
// groups, each sentinel first (the planner's groups for a warm unit,
// one group per cell otherwise): sentinel, checkpoint, join. Every
// lane must share a thermal topology with equal node and coupling
// parameters (the pool rejects mixed batches; ambient may differ) and
// every cell must span the same step count; PlanBatchUnits plans
// accordingly. Metric sets come back in
// unit order. obs(i) observes the lane running specs[i] (nil: none).
func runUnitGroups(ctx context.Context, pool *sim.BatchPool, specs []Scenario, groups [][]int, obs func(i int) Observer) ([]map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The sentinel of every group starts on one pooled batch engine;
	// forked members join it when their checkpoint becomes final, so
	// the engine is re-gotten with the larger lane set (each RunSteps
	// call gathers from the lane engines, so mid-run lane snapshots
	// and restores stay coherent).
	sentinels := make([]*sentinelRun, len(groups))
	defer func() {
		for _, s := range sentinels {
			if s != nil {
				s.release()
			}
		}
	}()
	lanes := make([]*sim.Engine, len(groups))
	// facades[i] runs specs[i]: a sentinel, or a member once it joined.
	facades := make([]*Engine, len(specs))
	// Lanes with paired seeds feed the appaware stability analysis
	// bitwise-identical inputs until their trajectories diverge (and
	// limit-agnostic pairs never diverge); one per-unit memo lets the
	// first lane's fixed-point analysis and ODE integration serve the
	// rest, forked members included. The unit runs on one goroutine, so
	// the share is safe.
	var shared *stability.TransientCache
	steps := -1
	for si, sub := range groups {
		eng, err := newBatchLane(specs[sub[0]], obs(sub[0]))
		if err != nil {
			return nil, err
		}
		facades[sub[0]] = eng
		lanes[si] = eng.Sim()
		s := &sentinelRun{facade: eng, aware: eng.AppAware(), final: len(sub) == 1}
		if s.aware != nil {
			if shared == nil {
				shared = stability.NewTransientCache()
			}
			s.aware.ShareTransientCache(shared)
			s.limitK = s.aware.LimitK(lanes[si])
		} else if !s.final {
			return nil, fmt.Errorf("mobisim: warm group sentinel %d (governor %q) is not appaware", sub[0], specs[sub[0]].Governor)
		}
		sentinels[si] = s
		// Members share the sentinel's prefix, so its step size.
		for _, i := range sub {
			n, err := sim.StepsFor(specs[i].DurationS, lanes[si].StepS())
			if err != nil {
				return nil, err
			}
			if steps == -1 {
				steps = n
			} else if n != steps {
				return nil, fmt.Errorf("mobisim: unit cell %d spans %d steps, another spans %d (mixed durations in one unit)", i, n, steps)
			}
		}
	}
	be, err := pool.Get(lanes)
	defer func() { pool.Put(be) }()
	if err != nil {
		return nil, err
	}

	// join builds the members of group si fresh, restores them from its
	// final checkpoint, steps them on a side engine to the unit's step
	// done and adds them to lanes.
	join := func(si, done int) error {
		s := sentinels[si]
		var joined []*sim.Engine
		for _, oi := range groups[si][1:] {
			eng, err := newBatchLane(specs[oi], obs(oi))
			if err != nil {
				return err
			}
			if err := eng.Restore(s.ckpt.Bytes()); err != nil {
				return err
			}
			eng.AppAware().ShareTransientCache(shared)
			facades[oi] = eng
			joined = append(joined, eng.Sim())
		}
		side, err := pool.Get(joined)
		if err != nil {
			return err
		}
		defer pool.Put(side)
		if err := advanceChunked(ctx, side.RunSteps, done-s.ckptStep); err != nil {
			return err
		}
		lanes = append(lanes, joined...)
		s.release()
		return nil
	}

	for done := 0; done < steps; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Advance to the next control tick of any sentinel still
		// tracking its checkpoint; at a tick, checkpoint and take the
		// tick alone so its outcome is known before the next one.
		n := steps - done
		for _, s := range sentinels {
			if s.final {
				continue
			}
			k := s.facade.Sim().StepsToControllerTick()
			if k == 0 {
				if err := s.checkpoint(done); err != nil {
					return nil, err
				}
				s.ticking = true
				k = 1
			}
			n = min(n, k)
		}
		// Cancellation-latency cap: without it the post-event tail
		// would run to the horizon between ctx polls.
		n = min(n, CtxCheckSteps)
		if err := be.RunSteps(n); err != nil {
			return nil, err
		}
		done += n
		before := len(lanes)
		for si, s := range sentinels {
			if !s.ticking {
				continue
			}
			s.ticking = false
			// The sensor still holds the reading the governor took at
			// the tick. A tick that took no reading decided nothing
			// limit-dependent, so whatever the sensor holds then can
			// only raise a false alarm, which costs a fork.
			s.final = s.aware.EventCount() > 0 || s.facade.Sim().Platform().Sensor.Held() >= s.limitK
			if s.final {
				if err := join(si, done); err != nil {
					return nil, err
				}
			}
		}
		if len(lanes) != before {
			pool.Put(be)
			if be, err = pool.Get(lanes); err != nil {
				return nil, err
			}
		}
	}

	// Members of groups whose checkpoint never became final share the
	// sentinel's metrics outright: their runs would be bitwise-identical.
	out := make([]map[string]float64, len(specs))
	for _, sub := range groups {
		sentinel := facades[sub[0]].Metrics()
		out[sub[0]] = sentinel
		for _, oi := range sub[1:] {
			if facades[oi] != nil {
				out[oi] = facades[oi].Metrics()
			} else {
				out[oi] = maps.Clone(sentinel)
			}
		}
	}
	return out, nil
}
