package power_test

import (
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/platform"
	"repro/internal/power"
)

// perOPPMaxFreq is MaxFreqWithinBudget as it was before the leakage
// factor was hoisted: a full Total, exp included, for every OPP.
func perOPPMaxFreq(m *power.DomainModel, table *dvfs.Table, util, tempK, budgetW float64) dvfs.OPP {
	best := table.Min()
	for i := 0; i < table.Len(); i++ {
		opp := table.At(i)
		if m.Total(opp, util, tempK) <= budgetW {
			best = opp
		}
	}
	return best
}

// TestMaxFreqWithinBudgetMatchesPerOPPTotal pins the hoisted inversion
// to the per-OPP Total loop on both presets' tables, at budgets exactly
// on and one ulp around every OPP's power, across temperatures.
func TestMaxFreqWithinBudgetMatchesPerOPPTotal(t *testing.T) {
	for _, p := range []*platform.Platform{platform.OdroidXU3(1), platform.Nexus6P(1)} {
		for _, id := range platform.DomainIDs() {
			m, table := p.Model(id), p.Domain(id).Table()
			for tempK := 273.15; tempK <= 400; tempK += 3.7 {
				for _, util := range []float64{0, 0.37, 1, 2.5, 4} {
					for i := 0; i < table.Len(); i++ {
						w := m.Total(table.At(i), util, tempK)
						for _, budget := range []float64{math.Nextafter(w, 0), w, math.Nextafter(w, math.Inf(1))} {
							got := m.MaxFreqWithinBudget(table, util, tempK, budget)
							want := perOPPMaxFreq(m, table, util, tempK, budget)
							if got != want {
								t.Fatalf("%s %s T=%v util=%v budget=%v: got %v, per-OPP Total loop %v",
									p.Name(), id, tempK, util, budget, got, want)
							}
						}
					}
				}
			}
		}
	}
}
