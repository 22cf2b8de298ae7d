package mobisim_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/benchkit"
	"repro/pkg/mobisim"
)

// TestPlanBatchUnitsPlannerWidth pins the width-0 rule on two workers:
// the planner counts the plan's cells and fills the workers before it
// widens a unit. Explicit widths bound a unit's cells too, except that
// units whose first stages (cold cells plus one sentinel per warm
// prefix group) fit in the width fold into one.
func TestPlanBatchUnitsPlannerWidth(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	cells, err := mobisim.ExpandCells(benchkit.SweepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]mobisim.Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	for _, tc := range []struct {
		width int
		warm  bool
		shape []int
	}{
		{0, false, []int{4, 4}},  // 8 cells on 2 workers
		{0, true, []int{-4, -4}}, // two 4-cell prefix groups on 2 workers
		{1, false, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{3, false, []int{3, 3, 2}},
		{8, false, []int{8}},
		{1, true, []int{-4, -4}},
		{3, true, []int{-8}},
		{8, true, []int{-8}},
	} {
		units, err := mobisim.PlanBatchUnits(specs, tc.width, tc.warm)
		if err != nil {
			t.Fatal(err)
		}
		if shape := unitShape(units); !reflect.DeepEqual(shape, tc.shape) {
			t.Errorf("width %d warm %v: unit shape %v, want %v", tc.width, tc.warm, shape, tc.shape)
		}
	}
}

// unitShape lists unit sizes; a negative size marks a warm unit.
func unitShape(units []mobisim.BatchPlanUnit) []int {
	var shape []int
	for _, u := range units {
		n := len(u.Idx)
		if u.Warm {
			n = -n
		}
		shape = append(shape, n)
	}
	return shape
}

// TestPlanWideGroupsShareFirstStage pins the width-0 plan of limit
// sweeps whose prefix groups (one per replicate) are too wide for two
// to share a unit's cells: the units fold until their sentinels fill
// the workers' share of first-stage lanes, so no sentinel runs alone
// while a worker has a second unit to run.
func TestPlanWideGroupsShareFirstStage(t *testing.T) {
	for _, tc := range []struct {
		replicates, limits, workers int
		shape                       []int
	}{
		{3, 6, 2, []int{-12, -6}},
		{4, 5, 2, []int{-10, -10}},
		{8, 4, 2, []int{-16, -16}},
		{3, 6, 3, []int{-6, -6, -6}},
	} {
		m := mobisim.Matrix{
			Platforms:  []string{mobisim.PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{mobisim.GovAppAware},
			Replicates: tc.replicates,
			DurationS:  3,
			BaseSeed:   1,
		}
		for k := 0; k < tc.limits; k++ {
			m.LimitsC = append(m.LimitsC, float64(55+2*k))
		}
		cells, err := mobisim.ExpandCells(m)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]mobisim.Scenario, len(cells))
		for i, c := range cells {
			specs[i] = c.Spec
		}
		units, err := mobisim.PlanBatchUnitsFor(specs, 0, tc.workers, true)
		if err != nil {
			t.Fatal(err)
		}
		if shape := unitShape(units); !reflect.DeepEqual(shape, tc.shape) {
			t.Errorf("%d replicates x %d limits on %d workers: unit shape %v, want %v", tc.replicates, tc.limits, tc.workers, shape, tc.shape)
		}
	}
}
