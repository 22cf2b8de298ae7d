package mobisim

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestWarmStartByteIdentity is the warm executor's contract test: for
// matrices covering the fork path (limits the sentinel crosses early),
// the never-acts full-copy path, and mixed governor arms, RunSweep at
// every width and worker count must be byte-identical to the per-cell
// oracle, including raw per-cell metrics. CI runs its fork-early
// matrix as the lone-run side of the CLI's warm-start step.
func TestWarmStartByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	matrices := map[string]Matrix{
		// Sentinel acts at ~0.2s (limit 52): every other member forks
		// from an early checkpoint and simulates most of the run.
		"fork-early": {
			Platforms:  []string{PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware},
			LimitsC:    []float64{52, 58, 64, 70},
			Replicates: 2,
			DurationS:  3,
			BaseSeed:   1,
		},
		// No member ever acts within the horizon: the full-copy path,
		// where members share the sentinel's metrics without simulating.
		"never-acts": {
			Platforms:  []string{PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware},
			LimitsC:    []float64{64, 67, 70},
			Replicates: 2,
			DurationS:  2,
			BaseSeed:   7,
		},
		// Warm groups interleaved with limit-agnostic cold cells, plus a
		// second platform whose appaware cells group separately.
		"mixed-arms": {
			Platforms:  []string{PlatformOdroidXU3, PlatformNexus6P},
			Workloads:  []string{"paper.io+bml"},
			Governors:  []string{GovAppAware, GovNone},
			LimitsC:    []float64{52, 58},
			Replicates: 1,
			DurationS:  2,
			BaseSeed:   3,
		},
	}
	for name, m := range matrices {
		m := m
		t.Run(name, func(t *testing.T) {
			assertSweepMatchesOracle(t, m, 2)
		})
	}
}

// TestWarmStartLimitAtPrewarm pins the sentinel's safety check. Both
// platforms prewarm to a temperature their lowest limit here sits at
// (Odroid 50 °C, Nexus 36 °C), so the lowest-limit sentinel starts on
// or above its limit, where the governor's time-to-limit prediction
// looks for a cooling crossing and never acts, while the next limit up
// acts early. Its metrics must not be copied to that group; members
// fork from the last checkpoint before the tick that read the sensor at
// or above the sentinel's limit, and the sweep's output equals the lone
// runs' byte for byte. CI runs its odroid-50 matrix as the lone-run
// side of the CLI's prewarm step.
func TestWarmStartLimitAtPrewarm(t *testing.T) {
	matrices := map[string]Matrix{
		"odroid-50": {
			Platforms:  []string{PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware},
			LimitsC:    []float64{50, 52, 58, 60},
			Replicates: 2,
			DurationS:  3,
			BaseSeed:   1000904,
		},
		"nexus6p-36": {
			Platforms:  []string{PlatformNexus6P},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware},
			LimitsC:    []float64{36, 38},
			Replicates: 2,
			DurationS:  3,
			BaseSeed:   1000904,
		},
	}
	for name, m := range matrices {
		m := m
		t.Run(name, func(t *testing.T) {
			assertSweepMatchesOracle(t, m, 2)
		})
	}
}

// TestWarmMatchesLoneRunsBelowPrewarm pins warm start below the
// prewarm temperature, where the lowest-limit sentinel of a group
// starts above its limit: on both presets (Odroid prewarms to 50 °C,
// Nexus to 36 °C) and on every corpus platform, limits from 30 to
// 58 °C must give RunSweep the lone runs' bytes at widths 0, 1, 3 and
// 8, on one worker and on two.
func TestWarmMatchesLoneRunsBelowPrewarm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	limits := []float64{30, 34, 36, 38, 42, 46, 50, 54, 58}
	matrices := map[string]Matrix{}
	for _, p := range []string{PlatformOdroidXU3, PlatformNexus6P} {
		matrices[p] = Matrix{
			Platforms: []string{p}, Workloads: []string{"3dmark+bml"}, Governors: []string{GovAppAware},
			LimitsC: limits, Replicates: 2, DurationS: 3, BaseSeed: 1000904,
		}
	}
	for _, p := range registerCorpus(t, "prewarm-") {
		matrices[p] = Matrix{
			Platforms: []string{p}, Workloads: []string{"gen-bursty+bml"}, Governors: []string{GovAppAware},
			LimitsC: limits, Replicates: 2, DurationS: 3, BaseSeed: 5,
		}
	}
	for name, m := range matrices {
		m := m
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertSweepMatchesOracle(t, m, 1, 2)
		})
	}
}

// warmStartPlanSpecs is TestWarmStartPlan's matrix: two platforms,
// the appaware and none arms, three limits, two replicates and two
// durations.
func warmStartPlanSpecs(t *testing.T) []Scenario {
	t.Helper()
	var specs []Scenario
	for _, durationS := range []float64{1, 2} {
		m := Matrix{
			Platforms:  []string{PlatformOdroidXU3, PlatformNexus6P},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{GovAppAware, GovNone},
			LimitsC:    []float64{55, 60, 65},
			Replicates: 2,
			DurationS:  durationS,
			BaseSeed:   1,
		}
		cells, err := ExpandCells(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			specs = append(specs, c.Spec)
		}
	}
	return specs
}

// TestPlanMissesWidestFirst pins the explore evaluator's plan on the
// TestWarmStartPlan matrix. planMisses, from keys memoized once per
// platform, returns exactly PlanBatchUnitsFor's units, which come in
// build order, stably sorted most cells first: non-increasing cell
// counts, units of equal width in build order, every cell covered once.
// built lists the planner's units (a warm one prefixed with "w") in
// build order: thermal-topology and duration groups in first-seen
// order, each packed first-fit from its widest item (a warm prefix
// group or a cold cell) down, then its units folded first-fit while
// their first stages fit the width.
func TestPlanMissesWidestFirst(t *testing.T) {
	specs := warmStartPlanSpecs(t)
	e := newCellEvaluator(&searchPlan{}, OptimizeConfig{})
	misses := make([]missJob, len(specs))
	for i := range specs {
		specs[i].Normalize() // the evaluator plans normalized cells
		misses[i] = missJob{spec: specs[i], pe: e.platform(specs[i])}
	}
	if len(e.platforms) != 2 {
		t.Fatalf("%d platform entries for two platforms", len(e.platforms))
	}
	render := func(units []BatchPlanUnit) []string {
		out := make([]string, len(units))
		for ui, u := range units {
			idx := make([]string, len(u.Idx))
			for k, i := range u.Idx {
				idx[k] = strconv.Itoa(i)
			}
			if out[ui] = strings.Join(idx, ","); u.Warm {
				out[ui] = "w" + out[ui]
			}
		}
		return out
	}
	built := map[int]map[bool]string{
		1: {
			false: "0 1 2 3 4 5 12 13 6 7 8 9 10 11 14 15 16 17 18 19 20 21 28 29 22 23 24 25 26 27 30 31",
			true:  "w0,2,4 w1,3,5 12 13 w6,8,10 w7,9,11 14 15 w16,18,20 w17,19,21 28 29 w22,24,26 w23,25,27 30 31",
		},
		3: {
			false: "0,1,2 3,4,5 12,13 6,7,8 9,10,11 14,15 16,17,18 19,20,21 28,29 22,23,24 25,26,27 30,31",
			true:  "w12,13,0,2,4 w1,3,5 w14,15,6,8,10 w7,9,11 w28,29,16,18,20 w17,19,21 w30,31,22,24,26 w23,25,27",
		},
		8: {
			false: "0,1,2,3,4,5,12,13 6,7,8,9,10,11,14,15 16,17,18,19,20,21,28,29 22,23,24,25,26,27,30,31",
			true:  "w0,2,4,1,3,5,12,13 w6,8,10,7,9,11,14,15 w16,18,20,17,19,21,28,29 w22,24,26,23,25,27,30,31",
		},
	}
	for _, warm := range []bool{false, true} {
		for _, width := range []int{0, 1, 3, 8} {
			for _, workers := range []int{1, 2, 4} {
				plan, err := PlanBatchUnitsFor(specs, width, workers, warm)
				if err != nil {
					t.Fatal(err)
				}
				want := render(plan)
				if b, ok := built[width][warm]; ok && !reflect.DeepEqual(want, strings.Fields(b)) {
					t.Errorf("width %d warm %v: PlanBatchUnitsFor %v, want build order %s", width, warm, want, b)
				}
				if !warm {
					continue // planMisses plans warm
				}
				slices.SortStableFunc(want, func(a, b string) int {
					return strings.Count(b, ",") - strings.Count(a, ",")
				})
				units, err := planMisses(specs, misses, SweepConfig{Workers: workers, BatchWidth: width})
				if err != nil {
					t.Fatal(err)
				}
				if got := render(units); !reflect.DeepEqual(got, want) {
					t.Errorf("width %d workers %d: planMisses %v, want %v", width, workers, got, want)
				}
				covered := make([]int, len(specs))
				for ui, u := range units {
					if ui > 0 && len(u.Idx) > len(units[ui-1].Idx) {
						t.Errorf("width %d workers %d: unit %d wider than unit %d", width, workers, ui, ui-1)
					}
					for _, i := range u.Idx {
						covered[i]++
					}
				}
				for i, n := range covered {
					if n != 1 {
						t.Errorf("width %d workers %d: cell %d covered %d times", width, workers, i, n)
					}
				}
			}
		}
	}
}

// TestWarmStartPlan pins PlanBatchUnits' grouping policy over a matrix
// mixing platforms, governor arms, limits, replicates and durations:
// every cell is covered exactly once; no unit mixes thermal topologies
// or durations; a unit's first stage (its cold cells plus one sentinel
// per warm prefix group) has at most width lanes, and so has a unit
// with no warm group; with warm start every appaware prefix group lies
// whole in one warm unit, and a unit is warm exactly when it holds one.
func TestWarmStartPlan(t *testing.T) {
	specs := warmStartPlanSpecs(t)
	// A prefix group is one prefix at one duration: PrefixKey leaves
	// the duration out, but one fork step count must serve a group.
	type groupKey struct {
		prefix    uint64
		durationS float64
	}
	groups := make([]groupKey, len(specs))
	topos := make([]uint64, len(specs))
	size := make(map[groupKey]int) // appaware cells per prefix group
	for i, spec := range specs {
		pk, err := spec.PrefixKey()
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = groupKey{pk, spec.DurationS}
		if limitAware(spec.Governor) {
			size[groups[i]]++
		}
		if topos[i], err = thermalTopoKey(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, warm := range []bool{false, true} {
		for _, width := range []int{1, 3, 8} {
			units, err := PlanBatchUnits(specs, width, warm)
			if err != nil {
				t.Fatal(err)
			}
			covered := make([]int, len(specs))
			unitOf := make(map[groupKey]int)
			warmCells := 0
			for ui, u := range units {
				if len(u.Idx) == 0 {
					t.Fatalf("width %d warm %v: unit %d is empty", width, warm, ui)
				}
				first := u.Idx[0]
				inUnit := make(map[groupKey]int)
				holdsGroup := false
				for _, i := range u.Idx {
					covered[i]++
					if topos[i] != topos[first] || specs[i].DurationS != specs[first].DurationS {
						t.Errorf("width %d warm %v: unit %d mixes cells %d and %d of different topology or duration", width, warm, ui, first, i)
					}
					if !warm || !limitAware(specs[i].Governor) || size[groups[i]] < 2 {
						continue
					}
					holdsGroup = true
					inUnit[groups[i]]++
					if prev, ok := unitOf[groups[i]]; ok && prev != ui {
						t.Errorf("width %d: prefix group of cell %d split across units %d and %d", width, i, prev, ui)
					}
					unitOf[groups[i]] = ui
					warmCells++
				}
				if u.Warm != holdsGroup {
					t.Errorf("width %d warm %v: unit %d Warm %v, holds a warm prefix group %v", width, warm, ui, u.Warm, holdsGroup)
				}
				// The first stage runs the unit's cold cells and one
				// sentinel per warm prefix group.
				lanes := len(u.Idx) + len(inUnit)
				for _, n := range inUnit {
					lanes -= n
				}
				if lanes > width || (!holdsGroup && len(u.Idx) > width) {
					t.Errorf("width %d warm %v: unit %d has %d cells and %d first-stage lanes", width, warm, ui, len(u.Idx), lanes)
				}
			}
			for i, n := range covered {
				if n != 1 {
					t.Errorf("width %d warm %v: cell %d covered %d times, want exactly once", width, warm, i, n)
				}
			}
			// 2 durations x 2 platforms x 2 replicates x 3 limits.
			if want := 24; warm && warmCells != want {
				t.Errorf("width %d: warm units hold %d grouped cells, want all %d appaware cells", width, warmCells, want)
			}
		}
	}

	// A single-limit matrix yields singleton prefix groups: everything
	// stays cold, and warm start degenerates to the cold executor.
	cells, err := ExpandCells(Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{GovAppAware},
		LimitsC:    []float64{55},
		Replicates: 2,
		DurationS:  1,
		BaseSeed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	single := make([]Scenario, len(cells))
	for i, c := range cells {
		single[i] = c.Spec
	}
	units, err := PlanBatchUnits(single, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	for ui, u := range units {
		if u.Warm {
			t.Errorf("single-limit matrix planned warm unit %d", ui)
		}
	}
}

// TestWarmStartCancellation checks the warm path honors context
// cancellation like the cold pools.
func TestWarmStartCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := Matrix{
		Platforms: []string{PlatformOdroidXU3},
		Workloads: []string{"3dmark+bml"},
		Governors: []string{GovAppAware},
		LimitsC:   []float64{55, 60},
		DurationS: 1,
		BaseSeed:  1,
	}
	if _, err := RunSweep(ctx, m, SweepConfig{}); err == nil {
		t.Error("canceled context should abort the warm sweep")
	}
}
