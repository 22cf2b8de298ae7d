package experiments

import (
	"context"
	"fmt"

	"repro/pkg/mobisim"
)

// SweepPoint is one point of the thermal-limit trade-off study.
type SweepPoint struct {
	// LimitC is the thermal limit the governor regulates to.
	LimitC float64
	// GT1FPS is the foreground benchmark score at that limit.
	GT1FPS float64
	// PeakC is the hottest temperature observed.
	PeakC float64
	// Migrations counts governor actions.
	Migrations int
	// BMLIterations is the background task's completed work — the cost
	// the background pays for the foreground's thermal headroom.
	BMLIterations uint64
}

// LimitSweep runs the 3DMark+BML scenario under the application-aware
// governor across a range of thermal limits, mapping the
// performance/temperature trade-off space. It is the "baseline for
// evaluating future thermal management algorithms" use the paper's
// conclusion proposes: any new governor can be dropped into the same
// scenario and compared against these curves.
//
// It is a thin wrapper over mobisim.RunScenarios at the planner's
// batch width with prefix warm start, across GOMAXPROCS workers. Every limit
// reuses the same seed (a paired design), and every executor is
// bitwise-identical to a sequential run, so the output matches the
// original serial loop point for point.
//
// One sentinel differs from the original loop: a limit of exactly 0 °C
// now selects the platform's default thermal limit (the sweep-wide
// convention) instead of a literal 0 °C cap, which only ever meant
// "throttle everything, always".
func LimitSweep(limitsC []float64, durationS float64, seed int64) ([]SweepPoint, error) {
	if len(limitsC) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs at least one limit")
	}
	specs := make([]mobisim.Scenario, len(limitsC))
	for i, limitC := range limitsC {
		specs[i] = mobisim.Scenario{
			Platform:     mobisim.PlatformOdroidXU3,
			Workload:     "3dmark+bml",
			Governor:     mobisim.GovAppAware,
			LimitC:       limitC,
			DurationS:    durationS,
			Seed:         seed,
			ModelOnlyBML: true,
		}
	}
	metrics, err := mobisim.RunScenarios(context.Background(), specs, mobisim.SweepConfig{})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(metrics))
	for i, m := range metrics {
		out[i] = SweepPoint{
			LimitC:        limitsC[i],
			GT1FPS:        m[mobisim.MetricGT1FPS],
			PeakC:         m[mobisim.MetricPeakC],
			Migrations:    int(m[mobisim.MetricMigrations]),
			BMLIterations: uint64(m[mobisim.MetricBMLIterations]),
		}
	}
	return out, nil
}
