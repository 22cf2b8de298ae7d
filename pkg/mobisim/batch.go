package mobisim

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stability"
)

// DefaultBatchWidth is the widest unit the planner chooses at width 0
// and the fork-stage packing BatchRunner.RunUnit uses at width <= 0.
// Eight lanes put one structure-of-arrays row per thermal node on
// exactly one 64-byte cache line (and match the fused kernel's
// specialized width).
const DefaultBatchWidth = 8

// CtxCheckSteps bounds how many integration steps any unit stage runs
// between context polls. Chunked stepping is trajectory-identical to
// one call, so the interval is a cancellation-latency knob only.
const CtxCheckSteps = 4096

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

// runLockstepSpecs executes one cold unit of facade scenarios on a
// pooled lockstep engine: build one constant-memory engine per lane,
// couple them on a BatchEngine from the pool, advance all lanes
// together, and extract per-lane metrics. Each lane is built exactly
// like RunScenarioMetrics builds its engine, and lanes never interact,
// so the metric sets are bitwise-identical to RunScenarioMetrics runs.
// All lanes must share a thermal topology with equal parameter values
// (the pool rejects mixed batches) and span the same step count;
// PlanBatchUnits groups accordingly. obs(i) observes lane i (nil: none).
func runLockstepSpecs(ctx context.Context, pool *sim.BatchPool, specs []Scenario, obs func(i int) Observer) ([]map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	facades := make([]*Engine, len(specs))
	lanes := make([]*sim.Engine, len(specs))
	// Lanes with paired seeds feed the appaware stability analysis
	// bitwise-identical inputs until their trajectories diverge (and
	// limit-agnostic pairs never diverge); one per-batch memo lets the
	// first lane's fixed-point analysis and ODE integration serve the
	// rest. The batch runs on one goroutine, so the share is safe.
	var shared *stability.TransientCache
	steps := -1
	for i, spec := range specs {
		eng, err := newBatchLane(spec, obs(i))
		if err != nil {
			return nil, err
		}
		facades[i] = eng
		lanes[i] = eng.Sim()
		if aware := eng.AppAware(); aware != nil {
			if shared == nil {
				shared = stability.NewTransientCache()
			}
			aware.ShareTransientCache(shared)
		}
		n, err := sim.StepsFor(spec.DurationS, lanes[i].StepS())
		if err != nil {
			return nil, err
		}
		if steps == -1 {
			steps = n
		} else if n != steps {
			return nil, fmt.Errorf("mobisim: batch lane %d spans %d steps, lane 0 spans %d (mixed durations in one batch)", i, n, steps)
		}
	}
	be, err := pool.Get(lanes)
	if err != nil {
		return nil, err
	}
	if err := advanceChunked(ctx, be.RunSteps, steps); err != nil {
		return nil, err
	}
	out := make([]map[string]float64, len(specs))
	for i, f := range facades {
		out[i] = f.Metrics()
	}
	// Metrics are extracted before the shell returns to the pool, so
	// recycled buffers can never alias a lane still being read.
	pool.Put(be)
	return out, nil
}
