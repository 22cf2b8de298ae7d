package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/pkg/mobisim"
)

// explore-search runs repeated cold mobisim.Optimize searches with
// Workers = nproc. Candidates are short, and the mutations cover the
// thermal limit, the CPU governor family and platform content, so every
// candidate compiles an inline platform spec and hashes its CellKey:
// engine construction, hashing, planning and snapshot forking are a
// large share of the time and stepping a small one — the opposite of
// sweep-cold. Single searches are too short to time steadily, so a run
// spans many.

const (
	// exploreGateSearches is how many timed searches the correctness
	// gate re-runs on the scalar path: search 0, then searches drawn with
	// probability 1/exploreGateEvery.
	exploreGateSearches = 4
	exploreGateEvery    = 40
	// traceWindowSearches is how many searches the traced run replays.
	traceWindowSearches = 4
)

// exploreSpec is search i of the seed's sequence.
func exploreSpec(seed int64, i int) mobisim.OptimizeSpec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	peak := 90.0
	plat := []string{mobisim.PlatformOdroidXU3, mobisim.PlatformNexus6P}[rng.Intn(2)]
	return mobisim.OptimizeSpec{
		Name: "perfbench",
		Scenario: mobisim.Scenario{
			Platform:  plat,
			Workload:  "gen-bursty+bml",
			Governor:  mobisim.GovAppAware,
			DurationS: 2,
			Seed:      1 + rng.Int63n(1<<30),
		},
		Objective:   mobisim.Objective{Metric: mobisim.MetricBMLIterations, Goal: mobisim.GoalMaximize},
		Constraints: []mobisim.Constraint{{Metric: mobisim.MetricPeakC, Max: &peak}},
		Mutations: []mobisim.Mutation{
			{Param: mobisim.ParamLimitC, Min: 55, Max: 75, Step: 5},
			{Param: mobisim.ParamCPUGovernor, Values: []string{
				mobisim.CPUGovStock, mobisim.CPUGovPerformance, mobisim.CPUGovConservative, mobisim.CPUGovOndemand}},
			{Param: "platform.domain.big.ceff_f", Min: 4e-10, Max: 8e-10, Step: 1e-10},
			{Param: "platform.ambient_c", Min: 20, Max: 30, Step: 5},
		},
		Neighbors:      8,
		MaxGenerations: 6,
		Patience:       2,
		Seed:           rng.Int63(),
	}
}

func runExploreSearch(ctx context.Context, b *bench) (*report, error) {
	r := newReport()
	cfg := mobisim.OptimizeConfig{Workers: b.nproc}
	setups, teardown, err := setupRepeated(setupRuns, func() (func(), error) {
		warm := exploreSpec(b.seed, -1)
		warm.MaxGenerations = 3
		_, err := mobisim.Optimize(ctx, warm, cfg)
		return func() {}, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer teardown()
	if b.trace {
		return r, traceExplore(ctx, b, r)
	}

	// The gate re-runs search 0 and a seeded sample of later searches;
	// only those results are kept.
	type kept struct {
		i, cells int
		json     []byte
	}
	var sample []kept
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	var spans, calib []span
	var cells []int
	start := time.Now()
	for i := 0; time.Since(start) < b.window(); i++ {
		c := calibrate()
		t0 := time.Now()
		res, err := mobisim.Optimize(ctx, exploreSpec(b.seed, i), cfg)
		t1 := time.Now()
		if err != nil {
			r.attempted++
			r.fail(1, "search %d: %v", i, err)
			continue
		}
		r.attempted += int64(res.Cells)
		spans, calib = append(spans, span{t0, t1}), append(calib, c)
		cells = append(cells, res.Cells)
		if pick := rng.Intn(exploreGateEvery) == 0; (i == 0 || pick) && len(sample) < exploreGateSearches {
			js, err := encodeSearch(res)
			if err != nil {
				return nil, err
			}
			sample = append(sample, kept{i, res.Cells, js})
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.clock.Stop()
	setJobMetrics(r, b.clock, spans, cells, calib)
	r.set("setup_s", setups.seconds(b.clock))
	r.set("peak_rss_mb", rss)

	// Gate: every cell of the sampled searches re-runs on the scalar
	// path; the whole search result — every candidate's metrics and the
	// work counters — must match bit for bit.
	for _, k := range sample {
		res, err := mobisim.Optimize(ctx, exploreSpec(b.seed, k.i), mobisim.OptimizeConfig{Runner: scalarRunner{}})
		if err != nil {
			r.fail(int64(k.cells), "search %d: scalar rerun: %v", k.i, err)
			continue
		}
		got, err := encodeSearch(res)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, k.json) {
			r.fail(int64(k.cells), "search %d: scalar rerun differs", k.i)
		}
	}
	return r, nil
}

// scalarRunner evaluates cells one by one on the scalar path.
type scalarRunner struct{}

func (scalarRunner) RunScenarios(ctx context.Context, specs []mobisim.Scenario) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(specs))
	for i, spec := range specs {
		m, err := mobisim.RunScenarioMetrics(ctx, spec)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// seamRunner evaluates each generation's cells through the timed seam
// and encodes them as the daemon would answer a scenarios job.
type seamRunner struct {
	s       *seam
	specs   []mobisim.Scenario
	metrics []map[string]float64
}

func (sr *seamRunner) RunScenarios(ctx context.Context, specs []mobisim.Scenario) ([]map[string]float64, error) {
	metrics, err := sr.s.run(ctx, specs, true)
	if err != nil {
		return nil, err
	}
	cells, err := scenarioCells(specs)
	if err != nil {
		return nil, err
	}
	if _, err := sr.s.encode(cells, metrics, false); err != nil {
		return nil, err
	}
	sr.specs = append(sr.specs, specs...)
	sr.metrics = append(sr.metrics, metrics...)
	return metrics, nil
}

// scenarioCells wraps specs as the cells of a scenarios job, the way
// the daemon parses one.
func scenarioCells(specs []mobisim.Scenario) ([]mobisim.Cell, error) {
	cells := make([]mobisim.Cell, len(specs))
	for i, spec := range specs {
		c, err := mobisim.CellForScenario(spec)
		if err != nil {
			return nil, err
		}
		c.Index = i
		cells[i] = c
	}
	return cells, nil
}

func encodeSearch(res *mobisim.SearchResult) ([]byte, error) {
	var buf bytes.Buffer
	err := res.EncodeJSON(&buf)
	return buf.Bytes(), err
}

// traceExplore is explore-search's traced run: the first searches of
// the seed's sequence run untraced, then again with every generation
// evaluated through the timed seam, and their cells feed the step-phase
// passes.
func traceExplore(ctx context.Context, b *bench, r *report) error {
	s := &seam{timer: timerCost()}
	sr := &seamRunner{s: s}
	var evaluated, cells, storeHits int
	var specs0 []mobisim.Scenario
	for i := 0; i < traceWindowSearches; i++ {
		spec := exploreSpec(b.seed, i)
		res, err := mobisim.Optimize(ctx, spec, mobisim.OptimizeConfig{Workers: b.nproc})
		if err != nil {
			return err
		}
		r.attempted += int64(res.Cells)
		want, err := encodeSearch(res)
		if err != nil {
			return err
		}
		replayed, err := mobisim.Optimize(ctx, spec, mobisim.OptimizeConfig{Runner: sr})
		if err != nil {
			return err
		}
		got, err := encodeSearch(replayed)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			r.fail(int64(res.Cells), "search %d: seam replay differs from Optimize", i)
		}
		evaluated += res.Evaluated
		cells += res.Cells
		storeHits += res.StoreHits
		if i == 0 {
			specs0 = append([]mobisim.Scenario(nil), sr.specs...)
		}
	}
	// Search 0's cells replay twice more, as one batch each time, and
	// must count the same work both times.
	first := &seam{timer: s.timer}
	if _, err := first.run(ctx, specs0, true); err != nil {
		return err
	}
	if err := recount(ctx, s.timer, specs0, true, first.work, r); err != nil {
		return err
	}
	if cells != s.work.cells {
		r.problem("searches simulated %d cells, the replay ran %d", cells, s.work.cells)
	}
	if err := forkSample(s, sr.specs, sr.metrics, r); err != nil {
		return err
	}
	s.report(r)
	r.set("work.ops", traceWindowSearches)
	r.set("explore.evaluated", float64(evaluated))
	r.set("explore.cells", float64(cells))
	r.set("explore.store_hit_ratio", ratio(float64(storeHits), float64(storeHits+cells)))
	if err := runPhases(ctx, sr.specs, sr.metrics, b.window(), r); err != nil {
		return err
	}
	return probeDaemon(ctx, b, specs0, sr.metrics[:len(specs0)], r)
}

// setExploreZero reports the explore counters of a workload that runs
// no search.
func setExploreZero(r *report) {
	r.set("explore.evaluated", 0)
	r.set("explore.cells", 0)
	r.set("explore.store_hit_ratio", 0)
}
