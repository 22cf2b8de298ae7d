package mobisim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// unitGroups lists a planned unit's groups as spec positions in run
// order: the groups the planner recorded, else one group per cell.
func unitGroups(u BatchPlanUnit) [][]int {
	var groups [][]int
	start := 0
	for _, end := range u.ends {
		groups = append(groups, u.Idx[start:end])
		start = end
	}
	for _, i := range u.Idx[start:] {
		groups = append(groups, []int{i})
	}
	return groups
}

// refereePlan checks a plan of specs against keys derived afresh for
// every cell: every cell is planned once; a unit's cells share one
// thermal topology, step size and step count; without warm start no
// unit is warm or records groups; with it, a unit's groups are exactly
// the PrefixKey partition of its limit-aware cells (limit-agnostic
// cells stand alone), each group's sentinel has its lowest effective
// limit, a unit is warm exactly when a group holds two or more cells,
// and no prefix group is split across units. At a positive width no
// unit's first stage has more lanes than width.
func refereePlan(t *testing.T, label string, specs []Scenario, units []BatchPlanUnit, width int, warm bool) {
	t.Helper()
	type class struct {
		topo, prefix     uint64
		durationS, stepS float64
	}
	classes := make([]class, len(specs))
	steps := make([]int, len(specs))
	for i, s := range specs {
		c := class{durationS: s.DurationS, stepS: s.StepS}
		if c.stepS == 0 {
			c.stepS = sim.DefaultStepS
		}
		var err error
		if c.topo, err = thermalTopoKey(s); err != nil {
			t.Fatal(err)
		}
		if c.prefix, err = s.PrefixKey(); err != nil {
			t.Fatal(err)
		}
		if steps[i], err = sim.StepsFor(s.DurationS, c.stepS); err != nil {
			t.Fatal(err)
		}
		classes[i] = c
	}
	covered := make([]int, len(specs))
	unitOf := make(map[class]int) // the unit holding a prefix group
	for ui, u := range units {
		if len(u.Idx) == 0 {
			t.Fatalf("%s: unit %d is empty", label, ui)
		}
		first := u.Idx[0]
		for _, i := range u.Idx {
			covered[i]++
			a, b := classes[i], classes[first]
			if a.topo != b.topo || a.stepS != b.stepS || steps[i] != steps[first] {
				t.Errorf("%s: unit %d mixes cells %d and %d of different topology, step size or step count", label, ui, first, i)
			}
		}
		groups := unitGroups(u)
		if width > 0 && len(groups) > width {
			t.Errorf("%s: unit %d has %d first-stage lanes, width %d", label, ui, len(groups), width)
		}
		if !warm {
			if u.Warm || u.ends != nil {
				t.Errorf("%s: unit %d is warm (%v) or records groups %v without warm start", label, ui, u.Warm, u.ends)
			}
			continue
		}
		// The fresh partition: limit-aware cells by prefix.
		fresh := make(map[class]int)
		for _, i := range u.Idx {
			if limitAware(specs[i].Governor) {
				fresh[classes[i]]++
			}
		}
		holdsGroup := false
		for _, g := range groups {
			s := specs[g[0]]
			if !limitAware(s.Governor) {
				if len(g) != 1 {
					t.Errorf("%s: unit %d groups limit-agnostic cell %d with %v", label, ui, g[0], g[1:])
				}
				continue
			}
			if n := fresh[classes[g[0]]]; len(g) != n {
				t.Errorf("%s: unit %d group %v has %d cells, its prefix has %d in the unit", label, ui, g, len(g), n)
			}
			if len(g) < 2 {
				continue
			}
			holdsGroup = true
			if prev, ok := unitOf[classes[g[0]]]; ok && prev != ui {
				t.Errorf("%s: prefix group of cell %d split across units %d and %d", label, g[0], prev, ui)
			}
			unitOf[classes[g[0]]] = ui
			lowest, err := effectiveLimitC(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range g[1:] {
				if classes[i] != classes[g[0]] {
					t.Errorf("%s: unit %d groups cells %d and %d of different prefixes", label, ui, g[0], i)
				}
				lim, err := effectiveLimitC(specs[i])
				if err != nil {
					t.Fatal(err)
				}
				if lim < lowest {
					t.Errorf("%s: unit %d group %v: sentinel limit %v above member %d's %v", label, ui, g, lowest, i, lim)
				}
			}
		}
		if u.Warm != holdsGroup {
			t.Errorf("%s: unit %d Warm %v, holds a group of two or more %v", label, ui, u.Warm, holdsGroup)
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Errorf("%s: cell %d planned %d times, want once", label, i, n)
		}
	}
}

// randomPlanSpecs draws a spec set mixing named and inline platforms
// (an odroid clone at another ambient, one with another thermal
// topology, one with another default limit), durations, step sizes,
// limits (0: the platform default), limit-aware and limit-agnostic
// governors and replicates, with repeats so prefix groups form.
func randomPlanSpecs(t *testing.T, rng *rand.Rand) []Scenario {
	t.Helper()
	odroid, err := resolvedPlatformSpec(Scenario{Platform: PlatformOdroidXU3})
	if err != nil {
		t.Fatal(err)
	}
	variant := func(name string, edit func(*PlatformSpec)) *PlatformSpec {
		ps := odroid.Clone()
		ps.Name = name
		edit(&ps)
		return &ps
	}
	inline := []*PlatformSpec{
		variant("odroid-hot", func(ps *PlatformSpec) { ps.AmbientC = 35 }),
		variant("odroid-heavy-board", func(ps *PlatformSpec) { ps.Nodes[len(ps.Nodes)-1].CapacitanceJPerK *= 2 }),
		variant("odroid-limit-56", func(ps *PlatformSpec) { ps.ThermalLimitC = 56 }),
	}
	pick := func(n int) int { return rng.Intn(n) }
	var specs []Scenario
	for n := 8 + pick(40); len(specs) < n; {
		s := Scenario{
			Workload:  "3dmark+bml",
			DurationS: []float64{1, 2}[pick(2)],
			StepS:     []float64{0, sim.DefaultStepS, 0.002}[pick(3)],
			Seed:      int64(1 + pick(3)),
		}
		switch k := pick(5); {
		case k < 2:
			s.Platform = []string{PlatformOdroidXU3, PlatformNexus6P}[k]
		default:
			s.PlatformSpec = inline[k-2]
		}
		switch k := pick(6); {
		case k < 4:
			s.Governor = GovAppAware
			s.LimitC = []float64{0, 0, 52, 56, 60, 64, 64}[pick(7)]
		case k == 4:
			s.Governor = GovNone
		case s.Platform == PlatformNexus6P:
			s.Governor = GovStepwise
		default:
			s.Governor = GovIPA
		}
		// A cell and its limit sweep: the same prefix at other limits.
		for r := pick(4); r >= 0; r-- {
			specs = append(specs, s)
			if s.Governor == GovAppAware {
				s.LimitC = []float64{0, 50, 54, 58, 62, 66}[pick(6)]
			}
		}
	}
	rng.Shuffle(len(specs), func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
	return specs
}

// TestPlanUnitsReferee referees the planner over seeded random spec
// sets at explicit widths and at the planner's width for several
// worker counts, warm start off and on.
func TestPlanUnitsReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for set := 0; set < 12; set++ {
		specs := randomPlanSpecs(t, rng)
		for _, warm := range []bool{false, true} {
			for _, width := range []int{0, 1, 3, 8} {
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("set %d width %d workers %d warm %v", set, width, workers, warm)
					units, err := PlanBatchUnitsFor(specs, width, workers, warm)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					refereePlan(t, label, specs, units, width, warm)
				}
			}
		}
	}
}

// TestPlanUnitsHashesSharedSeedsOnly pins the planner's hashing rule: a
// prefix covers the seed, so only limit-aware cells whose seed another
// limit-aware cell of their lockstep partition shares get a PrefixKey.
// One limit over eight replicates hashes nothing and plans every cell
// cold; a second limit hashes every appaware cell.
func TestPlanUnitsHashesSharedSeedsOnly(t *testing.T) {
	m := Matrix{
		Platforms: []string{PlatformOdroidXU3, PlatformNexus6P}, Workloads: []string{"3dmark+bml"},
		Governors: []string{GovAppAware, GovNone}, LimitsC: []float64{60}, Replicates: 8, DurationS: 1, BaseSeed: 3,
	}
	for _, tc := range []struct {
		limits []float64
		hashed int
	}{{[]float64{60}, 0}, {[]float64{60, 70}, 32}} {
		m.LimitsC = tc.limits
		cells, err := ExpandCells(m)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]Scenario, len(cells))
		for i, c := range cells {
			specs[i] = c.Spec
		}
		hashed := 0
		units, err := planUnits(specs, 0, 2, true,
			func(i int) (uint64, error) { return thermalTopoKey(specs[i]) },
			func(i int) (uint64, error) { hashed++; return specs[i].PrefixKey() })
		if err != nil {
			t.Fatal(err)
		}
		if hashed != tc.hashed {
			t.Errorf("limits %v: hashed %d prefixes, want %d", tc.limits, hashed, tc.hashed)
		}
		refereePlan(t, fmt.Sprintf("limits %v", tc.limits), specs, units, 0, true)
	}
}

// TestPlanMissesReferee referees the explore evaluator's plan, from
// keys memoized per candidate platform, over random generations of a
// search that mutates the limit, the ambient temperature, a thermal
// node's capacitance (so the topology) and the governor.
func TestPlanMissesReferee(t *testing.T) {
	spec := testOptimizeSpec()
	spec.Mutations = []Mutation{
		{Param: ParamLimitC, Min: 55, Max: 70, Step: 5},
		{Param: "platform.ambient_c", Min: 20, Max: 30, Step: 5},
		{Param: "platform.node.board.capacitance_j_per_k", Min: 5, Max: 6, Step: 1},
		{Param: ParamGovernor, Values: []string{GovAppAware, GovNone}},
	}
	spec.Replicates = 2
	spec.Normalize()
	plan, err := buildSearchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for gen := 0; gen < 8; gen++ {
		e := newCellEvaluator(plan, OptimizeConfig{})
		var specs []Scenario
		var misses []missJob
		seen := make(map[string]bool)
		for n := 4 + rng.Intn(20); len(specs) < n; {
			pt := make(point, len(plan.muts))
			for i, m := range plan.muts {
				pt[i] = rng.Intn(m.points())
			}
			if seen[fmt.Sprint(pt)] {
				continue
			}
			seen[fmt.Sprint(pt)] = true
			s, err := plan.candidate(pt)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < spec.Replicates; r++ {
				cell := s
				if r > 0 {
					cell.Seed = deriveSeed(plan.base.Seed, r)
				}
				specs = append(specs, cell)
				misses = append(misses, missJob{spec: cell, pe: e.platform(cell)})
			}
		}
		for _, width := range []int{0, 3, 8} {
			units, err := planMisses(specs, misses, SweepConfig{Workers: 2, BatchWidth: width})
			if err != nil {
				t.Fatal(err)
			}
			refereePlan(t, fmt.Sprintf("generation %d width %d", gen, width), specs, units, width, true)
		}
	}
}
