package mobisim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/sim"
	"repro/internal/thermal"
)

// Exported batch-execution seam.
//
// Every executor in the repository runs cells the same way: a planner
// partitions fully-resolved scenarios into lockstep-compatible units
// (equal thermal topology and step count, prefix warm-start subgrouping
// for limit-aware cells), and one runner executes a unit on pooled
// batch engines with byte-exact output, a warm unit as its prefix
// groups and a cold unit as one group per cell (see warmstart.go).
// RunScenarios runs every unit as one task on a fixed worker set
// (runTasks), behind RunSweep, Optimize's evaluator and
// experiments.LimitSweep; PlanBatchUnits and BatchRunner export its two
// halves for the simd daemon, which runs the units through its own
// singleflight scheduler. Nothing reachable through this API can change
// output bytes: unit shape, lane width, warm start, worker count and
// observers are all wall-clock knobs.

// DefaultBatchWidth is the widest unit the planner chooses at width 0.
// Eight lanes put one structure-of-arrays row per thermal node on
// exactly one 64-byte cache line and fill one block of the fused
// thermal kernel; a unit of two to four lanes integrates half a block.
const DefaultBatchWidth = 8

// CtxCheckSteps bounds how many integration steps any unit stage runs
// between context polls. Chunked stepping is trajectory-identical to
// one call, so the interval is a cancellation-latency knob only.
const CtxCheckSteps = 4096

// BatchPlanUnit is one executable unit of a batch plan: positions into
// the planned scenario slice, all sharing a thermal topology, step size
// and step count. A warm unit additionally groups limit-aware cells by
// prefix for sentinel/checkpoint/fork execution.
type BatchPlanUnit struct {
	// Idx are positions into the spec slice the plan was built from;
	// each warm prefix group is contiguous, its sentinel first.
	Idx []int
	// Warm marks a unit in which the planner grouped two or more cells.
	Warm bool
	// ends are the exclusive ends in Idx of a warm unit's groups: its
	// prefix groups and its cold cells, one group each. A cold unit,
	// or one built by hand, has none and runs one group per cell.
	ends []int
}

// PlanBatchUnits partitions fully-resolved scenarios into lockstep
// execution units of at most width cells. Cells are grouped by
// thermal-topology key, duration and step size — only such cells may
// share a lockstep engine — and, when warmStart is set, limit-aware
// cells sharing a warm-up prefix (two or more per prefix) form warm
// groups, each ordered sentinel (lowest effective limit) first, whose
// sentinels advance together and whose forked members join the running
// engine. Within a topology, duration and step size, whole warm groups
// and single cold cells are packed into units of at most width cells,
// largest first (a warm group wider than width starts a unit of its
// own), and then units fold while their first stages — one lane per
// cold cell and per warm group's sentinel — fit in width lanes; a unit
// holding a warm group is Warm. Every executor plans warm; a cold
// plan (warmStart false) is the baseline benchmarks compare it
// against. A width of 0 lets the planner choose (see
// PlanBatchUnitsFor) for GOMAXPROCS workers; a negative width is
// ErrNegativeBatchWidth. Unit shape never changes
// output bytes, only wall-clock; every unit is independently
// executable, so callers schedule them freely.
func PlanBatchUnits(specs []Scenario, width int, warmStart bool) ([]BatchPlanUnit, error) {
	return PlanBatchUnitsFor(specs, width, 0, warmStart)
}

// ErrNegativeBatchWidth is what every entry point taking a batch width
// returns for a negative one.
var ErrNegativeBatchWidth = errors.New("mobisim: batch width must be >= 0 (0 lets the planner choose)")

// PlanBatchUnitsFor is PlanBatchUnits for the worker count the units
// will run on (<= 0 means GOMAXPROCS). At width 0 it packs
// min(DefaultBatchWidth, ceil(cells/workers)) cells per unit and folds
// units up to min(DefaultBatchWidth, ceil(lanes/workers)) first-stage
// lanes, so a small job fills every worker before it widens any unit
// and the sentinels of wide warm groups still advance together; every
// cell, forked or not, ends up on its unit's lockstep engine.
func PlanBatchUnitsFor(specs []Scenario, width, workers int, warmStart bool) ([]BatchPlanUnit, error) {
	if width < 0 {
		return nil, ErrNegativeBatchWidth
	}
	return planUnits(specs, width, workers, warmStart,
		func(i int) (uint64, error) { return thermalTopoKey(specs[i]) },
		func(i int) (uint64, error) { return specs[i].PrefixKey() })
}

// planUnits is PlanBatchUnitsFor over caller-supplied keys (thermalTopoKey
// and PrefixKey of specs[i], the latter only for limit-aware cells whose
// seed another limit-aware cell of their partition shares); width >= 0.
func planUnits(specs []Scenario, width, workers int, warmStart bool, topo, prefix func(i int) (uint64, error)) ([]BatchPlanUnit, error) {
	type groupKey struct {
		topo             uint64
		durationS, stepS float64
	}
	// group is one lockstep-compatible partition: its cells in
	// first-seen order, limit-aware ones of a shared seed (with
	// warmStart) by prefix.
	type group struct {
		items    [][]int // a cold cell, or a warm prefix group
		prefixes []uint64
		byPrefix map[uint64][]int
	}
	// A prefix covers the seed, so a prefix group needs two
	// limit-aware cells of one seed in one lockstep partition; a cell
	// whose seed no other shares runs cold without hashing its prefix.
	type seedKey struct {
		groupKey
		seed int64
	}
	keys := make([]groupKey, len(specs))
	seeds := make(map[seedKey]int)
	for i := range specs {
		tk, err := topo(i)
		if err != nil {
			return nil, err
		}
		keys[i] = groupKey{topo: tk, durationS: specs[i].DurationS, stepS: specs[i].StepS}
		if keys[i].stepS == 0 {
			keys[i].stepS = sim.DefaultStepS
		}
		if warmStart && limitAware(specs[i].Governor) {
			seeds[seedKey{keys[i], specs[i].Seed}]++
		}
	}
	byKey := make(map[groupKey]*group)
	var groups []*group
	for i, key := range keys {
		g := byKey[key]
		if g == nil {
			g = &group{byPrefix: make(map[uint64][]int)}
			byKey[key] = g
			groups = append(groups, g)
		}
		if seeds[seedKey{key, specs[i].Seed}] < 2 || !limitAware(specs[i].Governor) {
			g.items = append(g.items, []int{i})
			continue
		}
		pk, err := prefix(i)
		if err != nil {
			return nil, err
		}
		if _, ok := g.byPrefix[pk]; !ok {
			g.prefixes = append(g.prefixes, pk)
		}
		g.byPrefix[pk] = append(g.byPrefix[pk], i)
	}
	lanes := 0
	defaults := make(map[string]float64)
	for _, g := range groups {
		// A prefix group of two or more cells is warm; a groupless
		// cell has no prefix to share and runs cold.
		for _, pk := range g.prefixes {
			sub := g.byPrefix[pk]
			if len(sub) > 1 {
				if err := sentinelFirst(specs, sub, defaults); err != nil {
					return nil, err
				}
			}
			g.items = append(g.items, sub)
		}
		lanes += len(g.items)
	}
	// Every item is one lane of its unit's first stage: a cold cell, or
	// a warm group's sentinel until its members join.
	cellW, laneW := width, width
	if width == 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		cellW = max(1, min(DefaultBatchWidth, (len(specs)+workers-1)/workers))
		laneW = max(1, min(DefaultBatchWidth, (lanes+workers-1)/workers))
	}
	var units []BatchPlanUnit
	for _, g := range groups {
		// Pack whole items into bins of at most cellW cells, then fold
		// the bins while their first stages fit in laneW lanes, so the
		// sentinels of groups too wide to share a bin still advance
		// together.
		bins := firstFit(len(g.items), func(i int) int { return len(g.items[i]) }, cellW)
		for _, fold := range firstFit(len(bins), func(b int) int { return len(bins[b]) }, laneW) {
			var u BatchPlanUnit
			for _, b := range fold {
				for _, it := range bins[b] {
					u.Idx = append(u.Idx, g.items[it]...)
					u.ends = append(u.ends, len(u.Idx))
					u.Warm = u.Warm || len(g.items[it]) > 1
				}
			}
			if !u.Warm {
				u.ends = nil
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// sentinelFirst orders a warm prefix group by effective thermal
// limit, ascending and stable, so its sentinel comes first: the lowest
// limit acts no later than any other member's, so its checkpoint is
// safe for every member to fork from. defaults memoizes named-platform
// default limits per name, so a plan does not rebuild the same
// platform per member.
func sentinelFirst(specs []Scenario, sub []int, defaults map[string]float64) error {
	type member struct {
		i      int
		limitC float64
	}
	ms := make([]member, len(sub))
	for k, i := range sub {
		spec := specs[i]
		named := spec.LimitC == 0 && spec.PlatformSpec == nil
		lim, ok := defaults[spec.Platform]
		if !ok || !named {
			var err error
			if lim, err = effectiveLimitC(spec); err != nil {
				return err
			}
			if named {
				defaults[spec.Platform] = lim
			}
		}
		ms[k] = member{i, lim}
	}
	slices.SortStableFunc(ms, func(a, b member) int { return cmp.Compare(a.limitC, b.limitC) })
	for k, m := range ms {
		sub[k] = m.i
	}
	return nil
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

// firstFit packs n items, largest first (stable), each into the first
// bin whose total size stays within capacity, opening a bin when none
// has room (an item larger than capacity gets a bin of its own). It
// returns the bins as item positions.
func firstFit(n int, size func(i int) int, capacity int) [][]int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return size(b) - size(a) })
	var bins [][]int
	var used []int
	full := 0 // the bins before full have no room left
	for _, i := range order {
		for full < len(bins) && used[full] >= capacity {
			full++
		}
		b := full
		for b < len(bins) && used[b]+size(i) > capacity {
			b++
		}
		if b == len(bins) {
			bins, used = append(bins, nil), append(used, 0)
		}
		bins[b] = append(bins[b], i)
		used[b] += size(i)
	}
	return bins
}

// BatchRunOptions tunes one RunUnit execution. Nothing here can change
// output bytes: observers never perturb the dynamics.
type BatchRunOptions struct {
	// Observer supplies the observer attached to the lane running
	// specs[i] of the planned slice; nil (or a nil return) leaves the
	// lane unobserved. In a warm unit the sentinel lane observes its
	// full horizon and forked members observe only their post-fork
	// steps; members of never-acting groups reuse the sentinel's
	// simulation outright and observe nothing.
	Observer func(i int) Observer
}

// BatchRunner executes planned units of fully-resolved scenarios on
// pooled lockstep engines — the exported seam over the spec-level
// runners the sweep executors and the explore evaluator terminate in.
// The zero value is ready to use; one runner should serve many units so
// the free-listed engine shells recycle across them. Safe for
// concurrent use: units run on caller goroutines over the internally
// synchronized pool.
type BatchRunner struct {
	pool sim.BatchPool
}

// RunUnit executes one planned unit against the spec slice the plan
// was built from, returning metric sets in u.Idx order — each
// bitwise-identical to a sequential Engine.Run of the same scenario.
// It runs the groups the planner recorded, each sentinel first; a unit
// built by hand runs one group per cell, with the same bytes but no
// warm start. width is ignored: the planner sized the unit, and a warm
// unit's forked members join its running lockstep engine, so no stage
// packs lanes of its own. Every stage polls ctx at least every
// CtxCheckSteps steps.
func (r *BatchRunner) RunUnit(ctx context.Context, specs []Scenario, u BatchPlanUnit, width int, opt BatchRunOptions) ([]map[string]float64, error) {
	sub := make([]Scenario, len(u.Idx))
	for k, i := range u.Idx {
		if i < 0 || i >= len(specs) {
			return nil, fmt.Errorf("mobisim: batch unit index %d out of range (%d specs)", i, len(specs))
		}
		sub[k] = specs[i]
	}
	// pos[k] = k: each group is a run pos[start:end] of unit positions.
	pos := make([]int, len(sub)+1)
	for k := range pos {
		pos[k] = k
	}
	ends := u.ends
	if ends == nil {
		ends = pos[1:] // one group per cell
	}
	groups := make([][]int, len(ends))
	start := 0
	for g, end := range ends {
		if end <= start || end > len(sub) || (g == len(ends)-1 && end != len(sub)) {
			return nil, fmt.Errorf("mobisim: batch unit groups end at %v, but the unit has %d cells", ends, len(sub))
		}
		groups[g], start = pos[start:end], end
	}
	obs := func(int) Observer { return nil }
	if opt.Observer != nil {
		obs = func(k int) Observer { return opt.Observer(u.Idx[k]) }
	}
	return runUnitGroups(ctx, &r.pool, sub, groups, obs)
}

// RunScenarios runs fully-resolved scenarios and returns their metric
// sets in spec order, each bitwise-identical to a sequential
// RunScenarioMetrics of the same scenario. The planner partitions the
// specs into units of at most cfg.BatchWidth lanes (0 lets it choose
// for cfg.Workers workers; negative is ErrNegativeBatchWidth), with
// prefix warm units, and every unit runs as one runTasks task on
// cfg.Workers workers. cfg.IncludeRaw is ignored. It stops early on
// the first unit error or on context cancellation.
func RunScenarios(ctx context.Context, specs []Scenario, cfg SweepConfig) ([]map[string]float64, error) {
	units, err := PlanBatchUnitsFor(specs, cfg.BatchWidth, cfg.Workers, true)
	if err != nil {
		return nil, err
	}
	var r BatchRunner
	return r.runUnits(ctx, specs, units, cfg)
}

// runUnits runs planned units as runTasks tasks in plan order and
// returns the metric sets in spec order. A caller running many batches
// on one runner (the explore evaluator) recycles engine shells across
// them.
func (r *BatchRunner) runUnits(ctx context.Context, specs []Scenario, units []BatchPlanUnit, cfg SweepConfig) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(specs))
	tasks := make([]func(ctx context.Context) error, len(units))
	for ui := range units {
		u := units[ui]
		tasks[ui] = func(ctx context.Context) error {
			metrics, err := r.RunUnit(ctx, specs, u, cfg.BatchWidth, BatchRunOptions{})
			if err != nil {
				s := specs[u.Idx[0]]
				return fmt.Errorf("mobisim: unit of %d starting at scenario %d (%s|%s|%s|%g, seed %d): %w",
					len(u.Idx), u.Idx[0], s.Platform, s.Workload, s.Governor, s.LimitC, s.Seed, err)
			}
			for k, i := range u.Idx {
				out[i] = metrics[k]
			}
			return nil
		}
	}
	if err := runTasks(ctx, cfg.Workers, tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// runTasks runs every task on workers goroutines (<= 0: GOMAXPROCS),
// started in slice order, and returns the first task error, if any.
// Tasks write disjoint caller-owned slots and the simulator is
// deterministic, so results never depend on worker interleaving: any
// worker count gives output byte-identical to a serial pass. The first
// error cancels the rest, and context cancellation stops feeding
// promptly.
func runTasks(ctx context.Context, workers int, tasks []func(ctx context.Context) error) error {
	if len(tasks) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(tasks))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				if ctx.Err() != nil {
					return
				}
				if err := tasks[ti](ctx); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
feed:
	for ti := range tasks {
		select {
		case jobs <- ti:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("mobisim: canceled: %w", err)
	}
	return nil
}
