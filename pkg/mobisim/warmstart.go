package mobisim

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/snapbin"
	"repro/internal/stability"
	"repro/internal/thermal"
)

// The unit runner (BatchRunner.RunUnit) with content-addressed prefix
// warm start (SweepConfig.WarmStart, the search evaluator, the simd
// daemon's warm units).
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
//     topology and duration, so one fork step count serves a group. A
//     cold unit is one group per cell.
//  2. Each group's sentinel — the member with the lowest effective
//     limit — runs the full horizon, snapshotting its state right
//     before each control tick. Its checkpoint becomes final at the
//     first tick where it acts or where its sensor reads at or above
//     its own limit: past that tick a member with a higher limit may
//     act first, so only states before it are shared by every member.
//     A group of one has no member to fork, so its checkpoint is never
//     tracked. The sentinels of a unit advance together as lanes of
//     one lockstep engine.
//  3. If the checkpoint became final, every other member is built
//     fresh, restored from it, and simulates only the remaining steps,
//     packed onto lockstep engines like sentinels.
//  4. Otherwise no member ever acts, and all members are
//     bitwise-identical runs: they share the sentinel's metrics
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
	limitK   float64
	ckpt     []byte
	ckptStep int
	// ticking marks a sentinel whose last advance was one control tick.
	ticking bool
	// final marks the checkpoint final: the sentinel acted, or its
	// sensor read at or above limitK, at the tick after it. A group of
	// one starts final: it has no member to fork.
	final bool
}

// snapshotInto refreshes the sentinel's checkpoint, reusing both the
// scratch writer and the checkpoint buffer.
func (s *sentinelRun) snapshotInto(w *snapbin.Writer, step int) error {
	w.Reset()
	if err := s.facade.Sim().SnapshotTo(w); err != nil {
		return err
	}
	s.ckpt = append(s.ckpt[:0], w.Bytes()...)
	s.ckptStep = step
	return nil
}

// runUnitGroups executes one unit of facade scenarios split into
// groups, each sentinel first (partitionWarmSpecs for a warm unit, one
// group per cell for a cold one): sentinel, checkpoint, fork. Every
// lane must share a thermal topology with equal parameter values (the
// pool rejects mixed batches) and every cell must span the same step
// count; PlanBatchUnits plans accordingly. Metric sets come back in
// unit order. width bounds how many forked members step in lockstep
// together; obs(i) observes the lane running specs[i] (nil: none).
func runUnitGroups(ctx context.Context, pool *sim.BatchPool, specs []Scenario, groups [][]int, width int, obs func(i int) Observer) ([]map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Sentinel stage: the lowest-limit member of every group runs the
	// full horizon, all groups in lockstep on one pooled batch engine
	// held across the whole horizon (each RunSteps call gathers from
	// the lane engines, so mid-run lane snapshots stay coherent).
	sentinels := make([]*sentinelRun, len(groups))
	lanes := make([]*sim.Engine, len(groups))
	// Lanes with paired seeds feed the appaware stability analysis
	// bitwise-identical inputs until their trajectories diverge (and
	// limit-agnostic pairs never diverge); one per-unit memo lets the
	// first lane's fixed-point analysis and ODE integration serve the
	// rest. The unit runs on one goroutine, so the share is safe.
	var shared *stability.TransientCache
	steps := -1
	for si, sub := range groups {
		eng, err := newBatchLane(specs[sub[0]], obs(sub[0]))
		if err != nil {
			return nil, err
		}
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
	if err != nil {
		return nil, err
	}
	defer pool.Put(be)
	var w snapbin.Writer
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
				if err := s.snapshotInto(&w, done); err != nil {
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
		for _, s := range sentinels {
			if !s.ticking {
				continue
			}
			s.ticking = false
			// The sensor still holds the reading the governor took at
			// the tick. A tick that took no reading decided nothing
			// limit-dependent, so whatever the sensor holds then can
			// only raise a false alarm, which costs a fork.
			s.final = s.aware.EventCount() > 0 || s.facade.Sim().Platform().Sensor.Held() >= s.limitK
		}
	}

	out := make([]map[string]float64, len(specs))
	for si, sub := range groups {
		out[sub[0]] = sentinels[si].facade.Metrics()
	}

	// Fork stage, per group: members of groups whose checkpoint never
	// became final share the sentinel's metrics outright (their runs
	// would be bitwise-identical); the others restore the checkpoint
	// and simulate the remaining steps, width members at a time.
	for si, sub := range groups {
		s := sentinels[si]
		members := sub[1:]
		if !s.final {
			for _, oi := range members {
				m := make(map[string]float64, len(out[sub[0]]))
				for k, v := range out[sub[0]] {
					m[k] = v
				}
				out[oi] = m
			}
			continue
		}
		forkSteps := steps - s.ckptStep
		for start := 0; start < len(members); start += width {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			chunk := members[start:min(start+width, len(members))]
			facades := make([]*Engine, len(chunk))
			forkLanes := make([]*sim.Engine, len(chunk))
			// Forked lanes share one stability memo like sentinel
			// lanes: they restart from a common state and feed the
			// analysis bitwise-equal inputs until their limits
			// diverge them.
			shared := stability.NewTransientCache()
			for i, oi := range chunk {
				eng, err := newBatchLane(specs[oi], obs(oi))
				if err != nil {
					return nil, err
				}
				if err := eng.Restore(s.ckpt); err != nil {
					return nil, err
				}
				eng.AppAware().ShareTransientCache(shared)
				facades[i] = eng
				forkLanes[i] = eng.Sim()
			}
			fbe, err := pool.Get(forkLanes)
			if err != nil {
				return nil, err
			}
			if err := advanceChunked(ctx, fbe.RunSteps, forkSteps); err != nil {
				return nil, err
			}
			for i, oi := range chunk {
				out[oi] = facades[i].Metrics()
			}
			pool.Put(fbe)
		}
	}
	return out, nil
}

// partitionWarmSpecs splits a warm unit into its prefix groups, each
// ordered by effective thermal limit ascending (sentinel first).
// Group membership is re-derived from the same content keys the
// planner used, so a unit of several groups partitions exactly as
// planned.
func partitionWarmSpecs(specs []Scenario) ([][]int, error) {
	byKey := make(map[uint64][]int)
	var order []uint64
	for i, spec := range specs {
		prefix, err := spec.PrefixKey()
		if err != nil {
			return nil, err
		}
		if _, seen := byKey[prefix]; !seen {
			order = append(order, prefix)
		}
		byKey[prefix] = append(byKey[prefix], i)
	}
	// Named-platform defaults are memoized per name so a unit does not
	// rebuild the same platform per member.
	effLimit := make([]float64, len(specs))
	defaults := make(map[string]float64)
	for i := range specs {
		spec := specs[i]
		if spec.LimitC == 0 && spec.PlatformSpec == nil {
			if d, ok := defaults[spec.Platform]; ok {
				effLimit[i] = d
				continue
			}
		}
		l, err := effectiveLimitC(spec)
		if err != nil {
			return nil, err
		}
		effLimit[i] = l
		if spec.LimitC == 0 && spec.PlatformSpec == nil {
			defaults[spec.Platform] = l
		}
	}
	subs := make([][]int, 0, len(order))
	for _, key := range order {
		sub := byKey[key]
		sort.SliceStable(sub, func(a, b int) bool { return effLimit[sub[a]] < effLimit[sub[b]] })
		subs = append(subs, sub)
	}
	return subs, nil
}

// effectiveLimitC resolves the thermal limit a scenario actually runs
// under: an explicit LimitC wins, otherwise the platform default. An
// inline spec's default goes through the same Celsius-Kelvin-Celsius
// round-trip the compiled platform applies, so the ordering this
// produces matches the limits the engine enforces bitwise.
func effectiveLimitC(spec Scenario) (float64, error) {
	if spec.LimitC != 0 {
		return spec.LimitC, nil
	}
	if spec.PlatformSpec != nil {
		return thermal.ToCelsius(thermal.ToKelvin(spec.PlatformSpec.ThermalLimitC)), nil
	}
	plat, err := LookupPlatform(spec.Platform, spec.Seed)
	if err != nil {
		return 0, err
	}
	return thermal.ToCelsius(plat.ThermalLimitK()), nil
}
