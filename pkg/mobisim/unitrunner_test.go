package mobisim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// mixedUnitSpecs is the unit-runner referee's cells: one thermal
// topology and duration on the odroid board at two ambient
// temperatures, holding appaware prefix groups whose checkpoints
// become final at different control ticks, a group whose checkpoint
// never does, and cold singletons (a limit-agnostic cell and a
// limit-aware cell with a prefix of its own). groups names the prefix
// groups by their cells, sentinel first.
func mixedUnitSpecs(t *testing.T) (specs []Scenario, groups [][]int) {
	t.Helper()
	base, err := resolvedPlatformSpec(Scenario{Platform: PlatformOdroidXU3})
	if err != nil {
		t.Fatal(err)
	}
	onAmbient := func(ambientC float64) *PlatformSpec {
		ps := base.Clone()
		ps.Name = fmt.Sprintf("odroid-ambient-%g", ambientC)
		ps.AmbientC = ambientC
		return &ps
	}
	warm, hot := onAmbient(25), onAmbient(35)
	cell := func(ps *PlatformSpec, governor string, limitC float64, seed int64) Scenario {
		s := Scenario{
			PlatformSpec: ps, Workload: "3dmark+bml", Governor: governor,
			LimitC: limitC, DurationS: 6, PrewarmC: 50, Seed: seed, ModelOnlyBML: true,
		}
		s.Normalize()
		return s
	}
	add := func(cells ...Scenario) {
		var g []int
		for _, c := range cells {
			g = append(g, len(specs))
			specs = append(specs, c)
		}
		groups = append(groups, g)
	}
	add(cell(warm, GovAppAware, 52, 1), cell(warm, GovAppAware, 56, 1), cell(warm, GovAppAware, 60, 1))
	add(cell(hot, GovAppAware, 60, 1), cell(hot, GovAppAware, 66, 1))
	add(cell(warm, GovAppAware, 90, 2), cell(warm, GovAppAware, 95, 2))
	add(cell(hot, GovNone, 0, 3))
	add(cell(hot, GovAppAware, 58, 4))
	return specs, groups
}

// TestRunUnitMixedMatchesLoneRuns is the unit runner's referee: one
// warm unit mixing prefix groups that fork at different ticks, a group
// that never forks, cold singletons and two ambient temperatures must
// give every cell the metrics of a lone RunScenarioMetrics bit for bit,
// whether the unit runs as the one unit the planner makes at width 17
// or as planned at narrower widths and at the planner's width for one
// and two workers.
func TestRunUnitMixedMatchesLoneRuns(t *testing.T) {
	specs, groups := mixedUnitSpecs(t)
	want := make([]map[string]float64, len(specs))
	for i, s := range specs {
		m, err := RunScenarioMetrics(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	same := func(t *testing.T, name string, got []map[string]float64) {
		t.Helper()
		for i := range specs {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: cell %d has %d metrics, lone run %d", name, i, len(got[i]), len(want[i]))
			}
			for k, w := range want[i] {
				if g, ok := got[i][k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s: cell %d metric %s = %v, lone run %v", name, i, k, g, w)
				}
			}
		}
	}

	// Ambient is per lane, so at width 17 the planner packs the whole
	// set into one warm unit: the referee's prefix groups, sentinel
	// first, and its cold cells, one group each.
	units, err := PlanBatchUnits(specs, 17, true)
	if err != nil || len(units) != 1 || !units[0].Warm || len(units[0].Idx) != len(specs) {
		t.Fatalf("width 17: planned %+v (%v), want one warm unit of all %d cells", units, err, len(specs))
	}
	all := units[0]
	var planned [][]int
	for _, g := range unitGroups(all) {
		if len(g) > 1 {
			planned = append(planned, g)
		}
	}
	if warmGroups := groups[:3]; !reflect.DeepEqual(planned, warmGroups) {
		t.Fatalf("width 17: planned prefix groups %v, want %v", planned, warmGroups)
	}
	// Run it observed: a forked member observes only its steps after
	// the fork, a shared one none.
	sinks := make([]StatsSink, len(specs))
	var r BatchRunner
	out, err := r.RunUnit(context.Background(), specs, all, 0, BatchRunOptions{Observer: func(i int) Observer { return &sinks[i] }})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]map[string]float64, len(specs))
	for k, i := range all.Idx {
		got[i] = out[k]
	}
	same(t, "one unit", got)
	full := sinks[0].Samples()
	forkAt := make(map[int]bool)
	for gi, g := range groups {
		if n := sinks[g[0]].Samples(); n != full {
			t.Errorf("group %d sentinel observed %d samples, want the full %d", gi, n, full)
		}
		for _, i := range g[1:] {
			n := sinks[i].Samples()
			if gi == 2 {
				if n != 0 {
					t.Errorf("cell %d of the never-forking group observed %d samples", i, n)
				}
				continue
			}
			if n == 0 || n >= full {
				t.Errorf("cell %d observed %d of %d samples: it did not fork", i, n, full)
			}
			forkAt[n] = true
		}
	}
	if len(forkAt) < 2 {
		t.Errorf("forks joined at %d distinct steps, want groups forking at different ticks", len(forkAt))
	}

	for _, tc := range []struct{ width, workers int }{{1, 2}, {3, 2}, {8, 2}, {17, 2}, {0, 1}, {0, 2}} {
		got, err := RunScenarios(context.Background(), specs, SweepConfig{BatchWidth: tc.width, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		same(t, fmt.Sprintf("width %d workers %d", tc.width, tc.workers), got)
	}
}

// TestPlanMissesAmbientsShareUnits pins the cell-count packing on an
// explore call: eight cells over three ambient temperatures (prefix
// groups of three, two and two cells and one cold cell) on two workers
// plan as two four-cell warm units, with no one-lane unit.
func TestPlanMissesAmbientsShareUnits(t *testing.T) {
	spec := testOptimizeSpec()
	spec.Mutations = append(spec.Mutations, Mutation{Param: "platform.ambient_c", Min: 20, Max: 30, Step: 5})
	spec.Normalize()
	plan, err := buildSearchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := newCellEvaluator(plan, OptimizeConfig{})
	// point is (limit 55+5i, CPU governor, ambient 20+5i °C).
	var specs []Scenario
	var misses []missJob
	for _, pt := range []point{
		{0, 0, 0}, {1, 0, 0}, {2, 0, 0},
		{0, 0, 1}, {3, 0, 1},
		{1, 0, 2}, {4, 0, 2},
		{0, 1, 2},
	} {
		s, err := plan.candidate(pt)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
		misses = append(misses, missJob{spec: s, pe: e.platform(s)})
	}
	units, err := planMisses(specs, misses, SweepConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var shape []int
	for _, u := range units {
		if !u.Warm {
			t.Errorf("unit %v is cold, want every unit warm", u.Idx)
		}
		shape = append(shape, len(u.Idx))
	}
	if len(shape) != 2 || shape[0] != 4 || shape[1] != 4 {
		t.Errorf("unit cell counts %v, want [4 4]", shape)
	}
}
