package mobisim_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/benchkit"
	"repro/pkg/mobisim"
)

// TestPlanBatchUnitsPlannerWidth pins the width-0 rule on two workers:
// the planner counts the lanes a plan needs (cold cells plus one
// sentinel per warm prefix group) and fills the workers before it
// widens a unit. Explicit widths keep their exact shapes.
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
	// shape lists unit sizes; a negative size marks a warm unit.
	for _, tc := range []struct {
		width int
		warm  bool
		shape []int
	}{
		{0, false, []int{4, 4}},  // 8 lanes on 2 workers
		{0, true, []int{-4, -4}}, // 2 sentinels on 2 workers
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
		var shape []int
		for _, u := range units {
			n := len(u.Idx)
			if u.Warm {
				n = -n
			}
			shape = append(shape, n)
		}
		if !reflect.DeepEqual(shape, tc.shape) {
			t.Errorf("width %d warm %v: unit shape %v, want %v", tc.width, tc.warm, shape, tc.shape)
		}
	}
}
