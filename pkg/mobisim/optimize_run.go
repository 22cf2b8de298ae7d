package mobisim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/platform"
)

// CellCache is an external content-addressed metric store the
// optimizer consults before simulating a cell and fills after — the
// same CellKey-keyed contract the simd daemon's result cache
// implements. Get and Put are only ever called from the coordinating
// goroutine, so implementations need no internal locking for the
// optimizer's sake. Cached metrics must be the exact values a
// simulation would produce: the search trajectory is then independent
// of cache state, and only the provenance fields of the output
// (cached flags, hit counters) reflect the session.
type CellCache interface {
	Get(key uint64) (map[string]float64, bool)
	Put(key uint64, metrics map[string]float64)
}

// CellRunner evaluates fully-resolved scenario cells somewhere other
// than the local engine pool — the seam behind `explore -daemon`, where
// each evaluator call's cells (one generation, or generations 0 and 1)
// go to the simd daemon as one job. Implementations must return
// metrics[i] for specs[i] carrying the exact values a local simulation
// of that cell would produce; the one permitted deviation is replacing
// a non-finite value with another (transports without NaN, like JSON,
// do this), which cannot change the search trajectory because
// replicate aggregation drops non-finite aggregates either way.
type CellRunner interface {
	RunScenarios(ctx context.Context, specs []Scenario) ([]map[string]float64, error)
}

// OptimizeConfig tunes how Optimize executes; none of its fields can
// change the search trajectory, only how fast it is produced.
type OptimizeConfig struct {
	// Workers is the execution-unit concurrency; <= 0 uses GOMAXPROCS.
	Workers int
	// BatchWidth is the lockstep lane count per batch, as in
	// SweepConfig: 0 lets the planner choose, 1 is the
	// scalar-equivalent single-lane configuration, and a negative
	// width is ErrNegativeBatchWidth.
	BatchWidth int
	// Cache optionally shares results across searches and with sweep
	// runs (cmd/explore wires the simd result cache here).
	Cache CellCache
	// Runner, when set, evaluates each evaluator call's cache-miss cells
	// instead of the local engine pool (cmd/explore wires the simd
	// daemon client here). Workers and BatchWidth are then the remote
	// executor's concern.
	Runner CellRunner
}

// Optimize runs the design-space search an OptimizeSpec declares: a
// seeded hill-climb over the spec's mutation grid (search.go) whose
// candidates are evaluated as lockstep batches on pooled engines,
// deduplicated by CellKey in a persistent per-search store. The spec
// is normalized and checked by OptimizeSpec.Validate, the only
// validation the search applies. Identical spec (and seed) produces a
// bitwise-identical SearchResult regardless of Workers and BatchWidth;
// with a Cache attached, only provenance fields (cached flags and hit
// counters) can differ.
func Optimize(ctx context.Context, spec OptimizeSpec, cfg OptimizeConfig) (*SearchResult, error) {
	spec.Scenario = spec.Scenario.cloneRefs()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.BatchWidth < 0 {
		return nil, ErrNegativeBatchWidth
	}
	plan, err := buildSearchPlan(spec)
	if err != nil {
		return nil, err
	}
	ev := newCellEvaluator(plan, cfg)
	r, best, err := plan.climb(ctx, ev.evaluate)
	if err != nil {
		return nil, err
	}
	r.Cells, r.StoreHits, r.CacheHits = ev.cells, ev.storeHits, ev.cacheHits
	if best != nil {
		s, err := plan.candidate(best)
		if err != nil {
			return nil, err
		}
		r.BestScenario = &s
	}
	return r, nil
}

// cellEvaluator is the evalFunc behind Optimize: it materializes
// candidates, resolves their replicate cells against the dedup store
// and the external cache, and simulates the remaining cells as warm
// packs and lockstep batches on one shared engine pool.
type cellEvaluator struct {
	plan   *searchPlan
	cfg    OptimizeConfig
	runner BatchRunner
	// store is the deduplicating candidate store: CellKey → metrics
	// for every cell resolved during this search.
	store     map[uint64]map[string]float64
	platforms map[string]*platformEntry // by candidate platform name
	minimize  bool

	cells     int // cells simulated
	storeHits int // cells served by the in-search store
	cacheHits int // cells served by the external cache
}

func newCellEvaluator(plan *searchPlan, cfg OptimizeConfig) *cellEvaluator {
	return &cellEvaluator{
		plan:      plan,
		cfg:       cfg,
		store:     make(map[uint64]map[string]float64),
		platforms: make(map[string]*platformEntry),
		minimize:  plan.spec.Objective.Goal == GoalMinimize,
	}
}

// platformEntry is what a search derives, lazily, from one candidate
// platform; platformName names platform content uniquely in a search.
type platformEntry struct {
	json  func() ([]byte, error) // resolvedPlatformJSON
	topo  func() (uint64, error) // thermalTopoKey
	probe func() error           // Scenario.Validate's compile probe
}

// platform returns s's platform entry, made from s on first sight.
func (e *cellEvaluator) platform(s Scenario) *platformEntry {
	if pe, ok := e.platforms[s.Platform]; ok {
		return pe
	}
	pe := &platformEntry{
		json:  sync.OnceValues(func() ([]byte, error) { return resolvedPlatformJSON(s) }),
		topo:  sync.OnceValues(func() (uint64, error) { return thermalTopoKey(s) }),
		probe: sync.OnceValue(func() error { _, err := s.PlatformSpec.Compile(0); return err }),
	}
	e.platforms[s.Platform] = pe
	return pe
}

// key is CellKey, or PrefixKey if prefix, of normalized cell c on pe.
func (pe *platformEntry) key(c Scenario, prefix bool) (uint64, error) {
	data, err := pe.json()
	if err != nil {
		return 0, err
	}
	return hashContent(c, data, prefix)
}

// missJob is one cell that must be simulated this call.
type missJob struct {
	key  uint64
	spec Scenario
	pe   *platformEntry
}

// planMisses is PlanBatchUnitsFor(specs, cfg.BatchWidth, cfg.Workers,
// true) from the misses' memoized keys, most cells first (stable): a call's cells share one duration,
// so runUnits, which starts units in order, starts its biggest first.
func planMisses(specs []Scenario, misses []missJob, cfg SweepConfig) ([]BatchPlanUnit, error) {
	units, err := planUnits(specs, cfg.BatchWidth, cfg.Workers, true,
		func(i int) (uint64, error) { return misses[i].pe.topo() },
		func(i int) (uint64, error) { return misses[i].pe.key(specs[i], true) })
	slices.SortStableFunc(units, func(a, b BatchPlanUnit) int { return len(b.Idx) - len(a.Idx) })
	return units, err
}

// evaluate runs consecutive generations of candidates. A candidate
// whose scenario fails validation is recorded as invalid, without a
// cell key. Cells are resolved in generation order, and the provenance
// counters and cache traffic are those of one call per generation.
func (e *cellEvaluator) evaluate(ctx context.Context, gens [][]point) ([][]SearchCandidate, error) {
	reps := e.plan.spec.Replicates
	type candCells struct {
		keys      []uint64
		simulated bool
	}
	out := make([][]SearchCandidate, len(gens))
	cands := make([][]*candCells, len(gens))
	var misses []missJob
	missGen := make(map[uint64]int) // generation that first missed a key

	for gi, pts := range gens {
		out[gi] = make([]SearchCandidate, len(pts))
		cands[gi] = make([]*candCells, len(pts))
		for pi, pt := range pts {
			s, err := e.plan.candidate(pt)
			if err != nil {
				out[gi][pi] = SearchCandidate{Invalid: err.Error()}
				continue
			}
			pe := e.platform(s)
			if err := s.validate(func(*PlatformSpec) error { return pe.probe() }); err != nil {
				out[gi][pi] = SearchCandidate{Invalid: err.Error()}
				continue
			}
			cc := &candCells{keys: make([]uint64, reps)}
			for r := 0; r < reps; r++ {
				cell := s
				if r > 0 {
					// Replicate 0 keeps the base seed (sharing cell keys
					// with plain runs of the same scenario); later
					// replicates derive theirs like sweep replicates do.
					cell.Seed = deriveSeed(e.plan.base.Seed, r)
				}
				key, err := pe.key(cell, false)
				if err != nil {
					out[gi][pi] = SearchCandidate{Invalid: err.Error()}
					cc = nil
					break
				}
				cc.keys[r] = key
				// Simulated by an earlier generation: a store hit.
				_, stored := e.store[key]
				if g, ok := missGen[key]; stored || (ok && g < gi) {
					e.storeHits++
					continue
				}
				if e.cfg.Cache != nil {
					if m, ok := e.cfg.Cache.Get(key); ok {
						e.store[key] = m
						e.cacheHits++
						continue
					}
				}
				cc.simulated = true
				if _, ok := missGen[key]; !ok {
					missGen[key] = gi
					misses = append(misses, missJob{key: key, spec: cell, pe: pe})
				}
			}
			cands[gi][pi] = cc
		}
	}

	if len(misses) > 0 {
		specs := make([]Scenario, len(misses))
		for i, mj := range misses {
			specs[i] = mj.spec
		}
		var results []map[string]float64
		var err error
		if e.cfg.Runner != nil {
			results, err = e.cfg.Runner.RunScenarios(ctx, specs)
			if err == nil && len(results) != len(misses) {
				err = fmt.Errorf("mobisim: optimize runner returned %d metric sets for %d cells", len(results), len(misses))
			}
		} else {
			// The evaluator's own engine pool recycles engine shells
			// across calls.
			cfg := SweepConfig{Workers: e.cfg.Workers, BatchWidth: e.cfg.BatchWidth}
			var units []BatchPlanUnit
			if units, err = planMisses(specs, misses, cfg); err == nil {
				results, err = e.runner.runUnits(ctx, specs, units, cfg)
			}
		}
		if err != nil {
			return nil, err
		}
		for i, mj := range misses {
			e.store[mj.key] = results[i]
			if e.cfg.Cache != nil {
				e.cfg.Cache.Put(mj.key, results[i])
			}
		}
		e.cells += len(misses)
	}

	for gi := range gens {
		for pi, cc := range cands[gi] {
			if cc == nil {
				continue // invalid, already recorded
			}
			agg := aggregateReplicates(e.store, cc.keys)
			ev := SearchCandidate{CellKey: fmt.Sprintf("%016x", cc.keys[0]), Cached: !cc.simulated, Metrics: agg}
			obj, ok := agg[e.plan.spec.Objective.Metric]
			if !ok {
				ev.Invalid = fmt.Sprintf("objective metric %q missing or non-finite in this scenario's results", e.plan.spec.Objective.Metric)
				out[gi][pi] = ev
				continue
			}
			feasible := true
			for _, c := range e.plan.spec.Constraints {
				v, ok := agg[c.Metric]
				if !ok || (c.Min != nil && v < *c.Min) || (c.Max != nil && v > *c.Max) {
					feasible = false
					break
				}
			}
			if e.minimize {
				// The climb compares a minimized objective by its score
				// 0 - obj; reporting 0 - score renders a -0 metric as 0.
				obj = 0 - (0 - obj)
			}
			ev.Objective = obj
			ev.Feasible = feasible
			out[gi][pi] = ev
		}
	}
	return out, nil
}

// thermalTopoKey hashes the platform content that must be equal for
// two engines to share a lockstep batch: the thermal network's nodes
// and couplings. The ambient temperature is per lane in the batch
// kernel, so it is not part of the key. Equal keys imply equal
// normalized JSON of those sections, but not batch compatibility on
// their own: cells must also share a step size and a step count, which
// the planner keys separately. Unequal keys merely split cells into
// separate batches, which never changes output bytes.
func thermalTopoKey(s Scenario) (uint64, error) {
	ps, err := resolvedPlatformSpec(s)
	if err != nil {
		return 0, fmt.Errorf("mobisim: batch plan: %w", err)
	}
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	if err := enc.Encode(struct {
		Nodes     []platform.NodeJSON     `json:"nodes"`
		Couplings []platform.CouplingJSON `json:"couplings"`
	}{ps.Nodes, ps.Couplings}); err != nil {
		return 0, fmt.Errorf("mobisim: batch topology key: %w", err)
	}
	return h.Sum64(), nil
}

// aggregateReplicates means each metric across the replicate cells, in
// sorted metric order for bitwise-reproducible float accumulation.
// Metrics missing from any replicate are dropped (a metric either
// exists for a scenario or does not; replicate-dependent presence
// would make feasibility depend on the replicate count). Non-finite
// aggregates are dropped too, keeping every recorded trace
// JSON-encodable.
func aggregateReplicates(store map[uint64]map[string]float64, keys []uint64) map[string]float64 {
	first := store[keys[0]]
	names := make([]string, 0, len(first))
	for name := range first {
		names = append(names, name)
	}
	sort.Strings(names)
	agg := make(map[string]float64, len(names))
	for _, name := range names {
		sum := 0.0
		ok := true
		for _, key := range keys {
			v, present := store[key][name]
			if !present {
				ok = false
				break
			}
			sum += v
		}
		if !ok {
			continue
		}
		if mean := sum / float64(len(keys)); !math.IsNaN(mean) && !math.IsInf(mean, 0) {
			agg[name] = mean
		}
	}
	return agg
}

// SearchResultSchema versions the search-trace serialization.
const SearchResultSchema = "mobisim-explore/1"

// ParamValue is one parameter assignment of a candidate: numeric
// parameters carry Value, categorical parameters carry Choice.
type ParamValue struct {
	Param  string   `json:"param"`
	Value  *float64 `json:"value,omitempty"`
	Choice string   `json:"choice,omitempty"`
}

// SearchCandidate is one evaluated candidate of the trajectory.
// Objective is in the spec's own orientation (a minimized metric
// reports the metric, not its negation). Cached is provenance, not
// trajectory: it reflects whether this session simulated the
// candidate.
type SearchCandidate struct {
	Gen       int                `json:"gen"`
	Index     int                `json:"index"`
	Params    []ParamValue       `json:"params"`
	CellKey   string             `json:"cell_key,omitempty"`
	Objective float64            `json:"objective"`
	Feasible  bool               `json:"feasible"`
	Invalid   string             `json:"invalid,omitempty"`
	Cached    bool               `json:"cached,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// SearchGeneration is one generation of the trajectory.
type SearchGeneration struct {
	Gen           int               `json:"gen"`
	Improved      bool              `json:"improved"`
	BestObjective float64           `json:"best_objective"`
	Candidates    []SearchCandidate `json:"candidates"`
}

// SearchResult is the complete search trace plus its outcome — the
// stable serialization cmd/explore emits and the golden test pins.
// Trajectory fields are bitwise-identical for identical specs; the
// provenance fields (Cells, StoreHits, CacheHits and the candidates'
// Cached flags) describe this session's execution.
type SearchResult struct {
	Schema       string             `json:"schema"`
	Name         string             `json:"name,omitempty"`
	Metric       string             `json:"metric"`
	Goal         string             `json:"goal"`
	Seed         int64              `json:"seed"`
	Generations  []SearchGeneration `json:"generations"`
	Best         *SearchCandidate   `json:"best,omitempty"`
	BestScenario *Scenario          `json:"best_scenario,omitempty"`
	Evaluated    int                `json:"evaluated"`
	Cells        int                `json:"cells"`
	StoreHits    int                `json:"store_hits"`
	CacheHits    int                `json:"cache_hits"`
	Converged    bool               `json:"converged"`
	StopReason   string             `json:"stop_reason"`
}

// EncodeJSON writes the search result as indented JSON — the stable
// serialization contract cmd/explore emits and the golden test pins.
func (r *SearchResult) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// EncodeCSV writes the trajectory as CSV, one row per candidate in
// trajectory order: the parameter columns, then provenance, objective
// and the sorted union of recorded metrics.
func (r *SearchResult) EncodeCSV(w io.Writer) error {
	names := make(map[string]bool)
	var params []string
	for _, g := range r.Generations {
		for _, c := range g.Candidates {
			if params == nil {
				for _, pv := range c.Params {
					params = append(params, pv.Param)
				}
			}
			for name := range c.Metrics {
				names[name] = true
			}
		}
	}
	metricNames := make([]string, 0, len(names))
	for name := range names {
		metricNames = append(metricNames, name)
	}
	sort.Strings(metricNames)

	var b bytes.Buffer
	b.WriteString("gen,index")
	for _, p := range params {
		b.WriteByte(',')
		b.WriteString(p)
	}
	b.WriteString(",cell_key,feasible,cached,objective")
	for _, name := range metricNames {
		b.WriteByte(',')
		b.WriteString(name)
	}
	b.WriteByte('\n')
	for _, g := range r.Generations {
		for _, c := range g.Candidates {
			fmt.Fprintf(&b, "%d,%d", c.Gen, c.Index)
			for _, pv := range c.Params {
				if pv.Value != nil {
					fmt.Fprintf(&b, ",%g", *pv.Value)
				} else {
					fmt.Fprintf(&b, ",%s", pv.Choice)
				}
			}
			fmt.Fprintf(&b, ",%s,%t,%t,%g", c.CellKey, c.Feasible, c.Cached, c.Objective)
			for _, name := range metricNames {
				if v, ok := c.Metrics[name]; ok {
					fmt.Fprintf(&b, ",%g", v)
				} else {
					b.WriteByte(',')
				}
			}
			b.WriteByte('\n')
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
