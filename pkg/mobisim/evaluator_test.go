package mobisim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// countingRunner is a CellRunner that simulates locally and counts its
// calls, standing in for the simd daemon client.
type countingRunner struct{ calls int }

func (c *countingRunner) RunScenarios(ctx context.Context, specs []Scenario) ([]map[string]float64, error) {
	c.calls++
	return RunScenarios(ctx, specs, SweepConfig{})
}

// loneRunner is a CellRunner that simulates every cell alone through
// RunScenarioMetrics: the cold oracle of the evaluator's warm units.
type loneRunner struct{}

func (loneRunner) RunScenarios(ctx context.Context, specs []Scenario) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(specs))
	for i, s := range specs {
		m, err := RunScenarioMetrics(ctx, s)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// testPlatformOptimizeSpec mirrors the explore-search benchmark: the
// limit, the CPU governor family and two platform-content axes, so
// every candidate embeds a renamed inline platform spec.
func testPlatformOptimizeSpec() OptimizeSpec {
	spec := testOptimizeSpec()
	spec.Mutations = append(spec.Mutations,
		Mutation{Param: "platform.domain.big.ceff_f", Min: 4e-10, Max: 8e-10, Step: 1e-10},
		Mutation{Param: "platform.ambient_c", Min: 20, Max: 30, Step: 5},
	)
	spec.Neighbors = 8
	return spec
}

// TestSearchBytesPinned pins the SHA-256 of the full search trace,
// provenance included (cells, store_hits, cache_hits, cached flags),
// across the evaluator's execution paths. The digests were computed
// once and must never be regenerated: a change here is drift.
func TestSearchBytesPinned(t *testing.T) {
	golden, err := LoadOptimize("testdata/explore/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	replicated := testOptimizeSpec()
	replicated.Scenario.DurationS = 1
	replicated.Replicates = 2
	genZero := testOptimizeSpec()
	genZero.MaxGenerations = 0
	onePoint := testOptimizeSpec()
	onePoint.Mutations = []Mutation{{Param: ParamLimitC, Min: 60, Max: 60, Step: 5}}

	digest := func(t *testing.T, spec OptimizeSpec, cfg OptimizeConfig) (string, *SearchResult) {
		t.Helper()
		res, js := optimizeJSON(t, spec, cfg)
		sum := sha256.Sum256(js)
		return hex.EncodeToString(sum[:]), res
	}
	for _, tc := range []struct {
		name string
		spec OptimizeSpec
		// prime runs the spec once against the cache before the
		// pinned run.
		prime  bool
		runner bool
		want   string
	}{
		{name: "golden", spec: golden, want: "f39b0e311f91227c59e43b5d19bb0b00eb5a43d1574bd94ef1c15b69def4e8e2"},
		{name: "platform", spec: testPlatformOptimizeSpec(), want: "95309e45c98706a51ebb000844b5a9963741ba5cc5a1d61e48ec17f7ca767559"},
		{name: "replicates", spec: replicated, want: "40132b2f59789c3b57d2a68e811270bdab14a4a2b58c12140890a85a0ab78dc4"},
		{name: "generation0", spec: genZero, want: "5bffccaa46ed19fdb3f9ad9e2f8daece042a677008f9b86e5685638d3b8f1d05"},
		{name: "onepoint", spec: onePoint, want: "352e46ea413e9eee967e7a073c4e0f07d9d3c14e2bf7f42e42545f1e09ce00f9"},
		{name: "primedcache", spec: testPlatformOptimizeSpec(), prime: true, want: "f9e52701e5f423051b84c717c6fa2e85c229c0085c77b59475a83303ccb4aa39"},
		{name: "runner", spec: testPlatformOptimizeSpec(), runner: true, want: "95309e45c98706a51ebb000844b5a9963741ba5cc5a1d61e48ec17f7ca767559"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg OptimizeConfig
			if tc.prime {
				cfg.Cache = newMemCellCache()
				optimizeJSON(t, tc.spec, cfg)
			}
			var runner *countingRunner
			if tc.runner {
				runner = &countingRunner{}
				cfg.Runner = runner
			}
			got, res := digest(t, tc.spec, cfg)
			if got != tc.want {
				t.Errorf("trace digest %s, want %s", got, tc.want)
			}
			// One runner call per generation, except that generations
			// 0 and 1 share one.
			if runner != nil && runner.calls != len(res.Generations)-1 {
				t.Errorf("runner saw %d calls for %d generations", runner.calls, len(res.Generations))
			}
		})
	}
}

// TestEvaluatorBatchesLikeSequentialCalls pins the provenance rule of a
// multi-generation evaluator call: a cell an earlier generation of the
// call simulates is a store hit (and the candidate cached) for a later
// one, exactly as across two calls, and the external cache sees the
// same traffic.
func TestEvaluatorBatchesLikeSequentialCalls(t *testing.T) {
	spec := testPlatformOptimizeSpec()
	spec.Normalize()
	plan, err := buildSearchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	nb := slices.Clone(plan.start)
	nb[0]++
	ctx := context.Background()
	batchCache, seqCache := newMemCellCache(), newMemCellCache()
	batch := newCellEvaluator(plan, OptimizeConfig{Cache: batchCache})
	got, err := batch.evaluate(ctx, [][]point{{plan.start}, {plan.start, nb}})
	if err != nil {
		t.Fatal(err)
	}
	seq := newCellEvaluator(plan, OptimizeConfig{Cache: seqCache})
	var want [][]SearchCandidate
	for _, pts := range [][]point{{plan.start}, {plan.start, nb}} {
		out, err := seq.evaluate(ctx, [][]point{pts})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out[0])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one call:\n%+v\ntwo calls:\n%+v", got, want)
	}
	if !got[1][0].Cached || got[1][1].Cached {
		t.Errorf("cached flags %v %v, want the repeated start point cached only", got[1][0].Cached, got[1][1].Cached)
	}
	counters := func(e *cellEvaluator, c *memCellCache) [5]int {
		return [5]int{e.cells, e.storeHits, e.cacheHits, c.gets, c.puts}
	}
	if g, w := counters(batch, batchCache), counters(seq, seqCache); g != w {
		t.Errorf("cells, store hits, cache hits, cache gets, cache puts: one call %v, two calls %v", g, w)
	}
}

// gridPoints lists every point of the plan's grid.
func gridPoints(p *searchPlan) []point {
	pts := []point{{}}
	for _, m := range p.muts {
		var next []point
		for _, pt := range pts {
			for v := 0; v < m.points(); v++ {
				next = append(next, append(slices.Clone(pt), v))
			}
		}
		pts = next
	}
	return pts
}

// TestEvaluatorKeysMatchScenario pins the evaluator's memoized
// platform keys to the scenario's own: for every valid grid point and
// replicate, the cell key, prefix key and thermal-topology key equal
// Scenario.CellKey, Scenario.PrefixKey and thermalTopoKey.
func TestEvaluatorKeysMatchScenario(t *testing.T) {
	if _, err := RegisterPlatformFile(filepath.Join("..", "..", "testdata", "platforms", "tricluster.json")); err != nil {
		t.Fatal(err)
	}
	tricluster := testOptimizeSpec()
	tricluster.Scenario.Platform = "tricluster"
	tricluster.Mutations = []Mutation{
		{Param: ParamLimitC, Min: 45, Max: 55, Step: 5},
		{Param: "platform.ambient_c", Min: 20, Max: 30, Step: 5},
	}
	for name, spec := range map[string]OptimizeSpec{
		"platform":   testPlatformOptimizeSpec(),
		"named":      testOptimizeSpec(),
		"tricluster": tricluster,
	} {
		spec.Replicates = 2
		spec.Normalize()
		plan, err := buildSearchPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		ev := newCellEvaluator(plan, OptimizeConfig{})
		checked := 0
		for _, pt := range gridPoints(plan) {
			s, err := plan.candidate(pt)
			if err != nil {
				t.Fatal(err)
			}
			if s.Validate() != nil {
				continue
			}
			pe := ev.platform(s)
			for r := 0; r < spec.Replicates; r++ {
				cell := s
				cell.Seed = deriveSeed(plan.base.Seed, r)
				for _, prefix := range []bool{false, true} {
					got, err := pe.key(cell, prefix)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cell.CellKey()
					if prefix {
						want, err = cell.PrefixKey()
					}
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s %v replicate %d prefix %v: memoized key %#x, scenario key %#x", name, pt, r, prefix, got, want)
					}
				}
				got, err := pe.topo()
				if err != nil {
					t.Fatal(err)
				}
				if want, err := thermalTopoKey(cell); err != nil || got != want {
					t.Errorf("%s %v: memoized topology key %#x, scenario's %#x (%v)", name, pt, got, want, err)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s: no valid grid point", name)
		}
	}
}

// TestEvaluatorInvalidMatchesValidate pins the memoized compile probe:
// a candidate whose platform fails to compile (ambient above the
// thermal limit) is recorded with Scenario.Validate's error text, on
// the probe's first use and on a later candidate sharing the platform.
func TestEvaluatorInvalidMatchesValidate(t *testing.T) {
	spec := testOptimizeSpec()
	spec.Mutations = append(spec.Mutations, Mutation{Param: "platform.ambient_c", Min: 20, Max: 200, Step: 90})
	spec.Normalize()
	plan, err := buildSearchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	hot := point{0, 2, 0} // limit_c 55, ambient 200 °C, stock
	s, err := plan.candidate(hot)
	if err != nil {
		t.Fatal(err)
	}
	verr := s.Validate()
	if verr == nil {
		t.Fatal("a 200 °C ambient validated")
	}
	hotter := point{1, 2, 1} // same platform, another limit and governor
	out, err := newCellEvaluator(plan, OptimizeConfig{}).evaluate(context.Background(), [][]point{{hot}, {hotter}})
	if err != nil {
		t.Fatal(err)
	}
	for gi, cands := range out {
		if got := cands[0].Invalid; got != verr.Error() {
			t.Errorf("generation %d: invalid %q, want %q", gi, got, verr.Error())
		}
	}
}
