package mobisim

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func fptr(v float64) *float64 { return &v }

// testOptimizeSpec is a small limit/cpu-governor search on the Odroid:
// 5x3 grid, a few generations, sub-second cells.
func testOptimizeSpec() OptimizeSpec {
	return OptimizeSpec{
		Name: "test-search",
		Scenario: Scenario{
			Platform:  PlatformOdroidXU3,
			Workload:  "gen-bursty+bml",
			Governor:  GovAppAware,
			DurationS: 2,
			Seed:      42,
		},
		Objective:   Objective{Metric: MetricBMLIterations, Goal: GoalMaximize},
		Constraints: []Constraint{{Metric: MetricPeakC, Max: fptr(90)}},
		Mutations: []Mutation{
			{Param: ParamLimitC, Min: 55, Max: 75, Step: 5},
			{Param: ParamCPUGovernor, Values: []string{CPUGovStock, CPUGovPerformance, CPUGovConservative}},
		},
		Neighbors:      3,
		MaxGenerations: 3,
		Patience:       2,
		Seed:           7,
	}
}

func optimizeJSON(t *testing.T, spec OptimizeSpec, cfg OptimizeConfig) (*SearchResult, []byte) {
	t.Helper()
	res, err := Optimize(context.Background(), spec, cfg)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	return res, buf.Bytes()
}

// TestOptimizeDeterministicAcrossWorkers pins the headline: identical
// seed produces a byte-identical search trace regardless of worker
// count and GOMAXPROCS.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	_, one := optimizeJSON(t, testOptimizeSpec(), OptimizeConfig{Workers: 1})
	runtime.GOMAXPROCS(8)
	_, eight := optimizeJSON(t, testOptimizeSpec(), OptimizeConfig{Workers: 8})
	runtime.GOMAXPROCS(old)
	if !bytes.Equal(one, eight) {
		t.Fatalf("search trace differs between workers=1/GOMAXPROCS=1 and workers=8/GOMAXPROCS=8:\n%s\n---\n%s", one, eight)
	}
}

// TestOptimizeExecutorEquivalence pins that the execution shape —
// single-lane batches, wide batches, odd widths, or every cell
// simulated alone — never changes output bytes.
func TestOptimizeExecutorEquivalence(t *testing.T) {
	_, base := optimizeJSON(t, testOptimizeSpec(), OptimizeConfig{})
	for _, cfg := range []OptimizeConfig{
		{BatchWidth: 1},
		{BatchWidth: 8},
		{BatchWidth: 3, Workers: 4},
		{Runner: loneRunner{}},
	} {
		_, got := optimizeJSON(t, testOptimizeSpec(), cfg)
		if !bytes.Equal(base, got) {
			t.Fatalf("config %+v changes the search trace:\n%s\n---\n%s", cfg, base, got)
		}
	}
}

// TestOptimizeTraceProperties checks the trajectory invariants on one
// run: monotone best-so-far, feasible candidates satisfying every
// declared constraint, the best candidate being the feasible optimum,
// and every evaluated candidate carrying a cell key and finite metrics.
func TestOptimizeTraceProperties(t *testing.T) {
	spec := testOptimizeSpec()
	res, _ := optimizeJSON(t, spec, OptimizeConfig{})

	if res.Schema != SearchResultSchema {
		t.Fatalf("schema %q, want %q", res.Schema, SearchResultSchema)
	}
	if res.Best == nil {
		t.Fatal("search found no feasible candidate")
	}
	evaluated := 0
	prevBest := math.Inf(-1)
	sawFeasible := false
	bestSeen := math.Inf(-1)
	for gi, g := range res.Generations {
		if g.Gen != gi {
			t.Fatalf("generation %d labeled %d", gi, g.Gen)
		}
		for ci, c := range g.Candidates {
			evaluated++
			if c.Index != ci {
				t.Fatalf("gen %d candidate %d labeled %d", gi, ci, c.Index)
			}
			if len(c.Params) != len(spec.Mutations) {
				t.Fatalf("candidate has %d params, want %d", len(c.Params), len(spec.Mutations))
			}
			if c.Invalid != "" {
				if c.Feasible {
					t.Fatalf("invalid candidate marked feasible: %+v", c)
				}
				continue
			}
			if c.CellKey == "" {
				t.Fatalf("evaluated candidate lacks a cell key: %+v", c)
			}
			for name, v := range c.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite recorded metric %s=%v", name, v)
				}
			}
			if c.Feasible {
				sawFeasible = true
				if v, ok := c.Metrics[MetricPeakC]; !ok || v > 90 {
					t.Fatalf("feasible candidate violates peak_c<=90: %+v", c)
				}
				if c.Objective > bestSeen {
					bestSeen = c.Objective
				}
			}
		}
		if sawFeasible {
			if g.BestObjective < prevBest {
				t.Fatalf("best objective worsened: gen %d %v -> %v", gi, prevBest, g.BestObjective)
			}
			if g.BestObjective != bestSeen {
				t.Fatalf("gen %d best %v != running feasible max %v", gi, g.BestObjective, bestSeen)
			}
			prevBest = g.BestObjective
		}
	}
	if evaluated != res.Evaluated {
		t.Fatalf("trace holds %d candidates, result says %d", evaluated, res.Evaluated)
	}
	if res.Best.Objective != bestSeen {
		t.Fatalf("best objective %v != feasible max %v", res.Best.Objective, bestSeen)
	}
	if res.BestScenario == nil {
		t.Fatal("best candidate lacks its scenario")
	}
	if err := res.BestScenario.Validate(); err != nil {
		t.Fatalf("best scenario fails validation: %v", err)
	}
}

// TestOptimizeMinimize covers the minimize orientation: best-so-far is
// monotone non-increasing in the spec's own metric direction.
func TestOptimizeMinimize(t *testing.T) {
	spec := testOptimizeSpec()
	spec.Objective = Objective{Metric: MetricPeakC, Goal: GoalMinimize}
	spec.Constraints = nil
	res, _ := optimizeJSON(t, spec, OptimizeConfig{})
	if res.Best == nil {
		t.Fatal("no feasible candidate")
	}
	prev := math.Inf(1)
	low := math.Inf(1)
	for _, g := range res.Generations {
		for _, c := range g.Candidates {
			if c.Feasible && c.Objective < low {
				low = c.Objective
			}
		}
		if g.BestObjective > prev {
			t.Fatalf("minimized best objective worsened: %v -> %v", prev, g.BestObjective)
		}
		prev = g.BestObjective
	}
	if res.Best.Objective != low {
		t.Fatalf("best %v != feasible min %v", res.Best.Objective, low)
	}
}

// TestOptimizeCandidateValidity enumerates the entire search space of
// a platform-mutating spec: every grid point must materialize into a
// scenario that passes Validate, with a platform spec that passes
// PlatformSpec.Validate, and platform names must be distinct exactly
// when platform content is.
func TestOptimizeCandidateValidity(t *testing.T) {
	spec := OptimizeSpec{
		Scenario: Scenario{
			Platform:  PlatformOdroidXU3,
			Workload:  "gen-bursty+bml",
			Governor:  GovAppAware,
			DurationS: 1,
			Seed:      5,
		},
		Objective: Objective{Metric: MetricBMLIterations},
		Mutations: []Mutation{
			{Param: "platform.ambient_c", Min: 20, Max: 30, Step: 5},
			{Param: "platform.domain.big.ceff_f", Min: 2e-10, Max: 8e-10, Step: 3e-10},
			{Param: ParamLimitC, Min: 60, Max: 70, Step: 10},
		},
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	plan, err := buildSearchPlan(spec)
	if err != nil {
		t.Fatalf("buildSearchPlan: %v", err)
	}
	nameToContent := make(map[string]string)
	for a := 0; a < plan.muts[0].points(); a++ {
		for b := 0; b < plan.muts[1].points(); b++ {
			for c := 0; c < plan.muts[2].points(); c++ {
				pt := point{a, b, c}
				s, err := plan.candidate(pt)
				if err != nil {
					t.Fatalf("candidate %v: %v", pt, err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("candidate %v fails scenario validation: %v", pt, err)
				}
				if s.PlatformSpec == nil {
					t.Fatalf("platform-mutating candidate %v lacks an inline spec", pt)
				}
				if err := s.PlatformSpec.Validate(); err != nil {
					t.Fatalf("candidate %v platform spec invalid: %v", pt, err)
				}
				content, err := s.PlatformSpec.JSON()
				if err != nil {
					t.Fatalf("candidate %v platform spec encode: %v", pt, err)
				}
				if prev, seen := nameToContent[s.PlatformSpec.Name]; seen {
					if prev != string(content) {
						t.Fatalf("platform name %q maps to two different contents", s.PlatformSpec.Name)
					}
				} else {
					nameToContent[s.PlatformSpec.Name] = string(content)
				}
			}
		}
	}
	// 3 ambient x 3 ceff platform contents; limit_c never renames.
	if len(nameToContent) != 9 {
		t.Fatalf("expected 9 distinct platform names, got %d", len(nameToContent))
	}
}

// memCellCache is an in-memory CellCache for provenance tests.
type memCellCache struct {
	m    map[uint64]map[string]float64
	gets int
	puts int
}

func newMemCellCache() *memCellCache {
	return &memCellCache{m: make(map[uint64]map[string]float64)}
}

func (c *memCellCache) Get(key uint64) (map[string]float64, bool) {
	c.gets++
	m, ok := c.m[key]
	return m, ok
}

func (c *memCellCache) Put(key uint64, metrics map[string]float64) {
	c.puts++
	c.m[key] = metrics
}

// clearProvenance zeroes the fields that legitimately differ between
// cold and cache-warm sessions, leaving only the trajectory.
func clearProvenance(r *SearchResult) {
	r.Cells, r.StoreHits, r.CacheHits = 0, 0, 0
	for gi := range r.Generations {
		for ci := range r.Generations[gi].Candidates {
			r.Generations[gi].Candidates[ci].Cached = false
		}
	}
	if r.Best != nil {
		r.Best.Cached = false
	}
}

// TestOptimizeCellCache pins the cache contract: a warm cache serves
// every cell (zero simulations) and cannot change the trajectory.
func TestOptimizeCellCache(t *testing.T) {
	cache := newMemCellCache()
	cold, err := Optimize(context.Background(), testOptimizeSpec(), OptimizeConfig{Cache: cache})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.Cells == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold run: cells=%d cacheHits=%d", cold.Cells, cold.CacheHits)
	}
	if cache.puts != cold.Cells {
		t.Fatalf("cache received %d puts for %d simulated cells", cache.puts, cold.Cells)
	}
	warm, err := Optimize(context.Background(), testOptimizeSpec(), OptimizeConfig{Cache: cache})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Cells != 0 {
		t.Fatalf("warm run simulated %d cells", warm.Cells)
	}
	if warm.CacheHits == 0 {
		t.Fatal("warm run reports no cache hits")
	}
	clearProvenance(cold)
	clearProvenance(warm)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cache state changed the trajectory:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestOptimizeReplicates checks replicate aggregation stays
// deterministic and uses distinct derived seeds per replicate.
func TestOptimizeReplicates(t *testing.T) {
	spec := testOptimizeSpec()
	spec.Scenario.DurationS = 1
	spec.Replicates = 2
	spec.MaxGenerations = 2
	_, a := optimizeJSON(t, spec, OptimizeConfig{Workers: 1})
	_, b := optimizeJSON(t, spec, OptimizeConfig{Workers: 8, BatchWidth: 3})
	if !bytes.Equal(a, b) {
		t.Fatal("replicated search trace depends on execution config")
	}
	res, _ := optimizeJSON(t, spec, OptimizeConfig{})
	// Two replicates per candidate: the cell count must be even and
	// larger than the candidate count.
	if res.Cells == 0 || res.Cells%2 != 0 {
		t.Fatalf("replicate cell count %d not a multiple of 2", res.Cells)
	}
}

func TestOptimizeContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(ctx, testOptimizeSpec(), OptimizeConfig{}); err == nil {
		t.Fatal("canceled context not reported")
	}
}

// TestOptimizeSpecRoundTrip pins the JSON discipline: parse → encode →
// parse converges, and Normalize is idempotent.
func TestOptimizeSpecRoundTrip(t *testing.T) {
	spec := testOptimizeSpec()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	out, err := spec.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	spec2, err := ParseOptimize(out)
	if err != nil {
		t.Fatalf("ParseOptimize: %v", err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("round trip drifted:\nfirst:  %+v\nsecond: %+v", spec, spec2)
	}
	norm := spec2
	norm.Normalize()
	if !reflect.DeepEqual(spec2, norm) {
		t.Fatal("Normalize is not idempotent")
	}
}

// TestOptimizeSpecRejects covers the validator's rejection families.
func TestOptimizeSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(*OptimizeSpec)
		want string
	}{
		{"unknown objective metric", func(o *OptimizeSpec) { o.Objective.Metric = "fps" }, "unknown objective metric"},
		{"unknown goal", func(o *OptimizeSpec) { o.Objective.Goal = "extremize" }, "unknown objective goal"},
		{"empty mutations", func(o *OptimizeSpec) { o.Mutations = nil }, "at least one mutation"},
		{"duplicate param", func(o *OptimizeSpec) {
			o.Mutations = append(o.Mutations, Mutation{Param: ParamLimitC, Min: 1, Max: 2, Step: 1})
		}, "duplicate mutation param"},
		{"unknown param", func(o *OptimizeSpec) {
			o.Mutations = []Mutation{{Param: "platform.fan_rpm", Min: 1, Max: 2, Step: 1}}
		}, "unknown numeric mutation param"},
		{"unknown domain", func(o *OptimizeSpec) {
			o.Mutations = []Mutation{{Param: "platform.domain.npu.ceff_f", Min: 1e-10, Max: 2e-10, Step: 1e-10}}
		}, "has no domain"},
		{"zero step", func(o *OptimizeSpec) { o.Mutations[0].Step = 0 }, "step must be > 0"},
		{"inverted range", func(o *OptimizeSpec) { o.Mutations[0].Min, o.Mutations[0].Max = 75, 55 }, "min 75 exceeds max 55"},
		{"mixed shape", func(o *OptimizeSpec) { o.Mutations[0].Values = []string{"x"} }, "mixes categorical"},
		{"bad categorical value", func(o *OptimizeSpec) {
			o.Mutations[1].Values = []string{"turbo"}
		}, "unknown value"},
		{"contradictory constraint", func(o *OptimizeSpec) {
			o.Constraints = []Constraint{{Metric: MetricPeakC, Min: fptr(80), Max: fptr(60)}}
		}, "contradictory bounds"},
		{"unbounded constraint", func(o *OptimizeSpec) {
			o.Constraints = []Constraint{{Metric: MetricPeakC}}
		}, "needs a min or max"},
		{"repeated categorical value", func(o *OptimizeSpec) {
			o.Mutations[1].Values = []string{CPUGovStock, CPUGovPerformance, CPUGovStock}
		}, "repeats value"},
		{"grid over the point cap", func(o *OptimizeSpec) {
			o.Mutations[0].Min, o.Mutations[0].Max, o.Mutations[0].Step = 40, 80, 1e-5
		}, "grid points"},
		{"nan mutation bound", func(o *OptimizeSpec) { o.Mutations[0].Min = math.NaN() }, "min must be finite"},
		{"negative neighbors", func(o *OptimizeSpec) { o.Neighbors = -1 }, "neighbors"},
		{"negative patience", func(o *OptimizeSpec) { o.Patience = -1 }, "patience"},
		{"negative max generations", func(o *OptimizeSpec) { o.MaxGenerations = -1 }, "max generations"},
		{"nan min delta", func(o *OptimizeSpec) { o.MinDelta = math.NaN() }, "min delta"},
		{"replicates bound", func(o *OptimizeSpec) { o.Replicates = MaxReplicates + 1 }, "replicates"},
		{"limit below absolute zero", func(o *OptimizeSpec) {
			o.Mutations[0].Min, o.Mutations[0].Max, o.Mutations[0].Step = -400, 60, 20
		}, "invalid scenario"},
		{"miscalibrated governor arm", func(o *OptimizeSpec) {
			o.Mutations = append(o.Mutations, Mutation{Param: ParamGovernor, Values: []string{GovAppAware, GovStepwise}})
		}, "invalid scenario"},
	}
	for _, tc := range cases {
		spec := testOptimizeSpec()
		spec.Normalize()
		tc.edit(&spec)
		err := spec.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOptimizeGoldenTrace pins the committed search-trace fixtures:
// running each committed spec must reproduce its golden trace byte for
// byte. spec.json mutates the limit and the CPU governor family;
// platform_spec.json also mutates platform content, so its candidates
// embed renamed inline platform specs. Regenerate after an intentional
// trajectory change with
//
//	go run ./cmd/explore -spec pkg/mobisim/testdata/explore/spec.json \
//	  > pkg/mobisim/testdata/explore/trace_golden.json
//	go run ./cmd/explore -spec pkg/mobisim/testdata/explore/platform_spec.json \
//	  > pkg/mobisim/testdata/explore/platform_trace_golden.json
func TestOptimizeGoldenTrace(t *testing.T) {
	for spec, golden := range map[string]string{
		"spec.json":          "trace_golden.json",
		"platform_spec.json": "platform_trace_golden.json",
	} {
		t.Run(spec, func(t *testing.T) {
			spec, err := LoadOptimize(filepath.Join("testdata", "explore", spec))
			if err != nil {
				t.Fatal(err)
			}
			_, got := optimizeJSON(t, spec, OptimizeConfig{})
			want, err := os.ReadFile(filepath.Join("testdata", "explore", golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("search trace drifted from the committed golden fixture %s\n(see the regeneration command in this test's comment)\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// TestOptimizeCSV checks the CSV rendering: stable header, one row per
// candidate.
func TestOptimizeCSV(t *testing.T) {
	res, _ := optimizeJSON(t, testOptimizeSpec(), OptimizeConfig{})
	var buf bytes.Buffer
	if err := res.EncodeCSV(&buf); err != nil {
		t.Fatalf("EncodeCSV: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != res.Evaluated+1 {
		t.Fatalf("CSV has %d lines, want header + %d candidates", len(lines), res.Evaluated)
	}
	if !strings.HasPrefix(lines[0], "gen,index,limit_c,cpu_governor,cell_key,feasible,cached,objective") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
	var buf2 bytes.Buffer
	if err := res.EncodeCSV(&buf2); err != nil {
		t.Fatalf("EncodeCSV again: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("CSV rendering is not deterministic")
	}
}
