package experiments

import (
	"context"
	"testing"

	"repro/internal/appaware"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// seedStyleOdroidGovernors is a frozen copy of the board's stock
// CPUfreq governor set (interactive CPU clusters, ondemand GPU), kept
// with the frozen reference loop so the regression baseline never
// moves when production wiring is refactored.
func seedStyleOdroidGovernors(t *testing.T) map[platform.DomainID]governor.Governor {
	t.Helper()
	bigGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	littleGov, err := governor.NewInteractive(governor.DefaultInteractiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	gpuGov, err := governor.NewOndemand(governor.DefaultOndemandConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[platform.DomainID]governor.Governor{
		platform.DomLittle: littleGov,
		platform.DomBig:    bigGov,
		platform.DomGPU:    gpuGov,
	}
}

// seedStyleLimitSweep is a frozen copy of the original serial LimitSweep
// loop, kept as the behavioral reference: the refactored pool-backed
// wrapper must reproduce it point for point.
func seedStyleLimitSweep(t *testing.T, limitsC []float64, durationS float64, seed int64) []SweepPoint {
	t.Helper()
	out := make([]SweepPoint, 0, len(limitsC))
	for _, limitC := range limitsC {
		plat := platform.OdroidXU3(seed)
		bench := workload.NewThreeDMark(seed)
		bml := workload.NewBML()
		bml.ExecuteRatio = 0

		ctrl, err := appaware.New(appaware.Config{
			ThermalLimitK: thermal.ToKelvin(limitC),
			HorizonS:      30,
			IntervalS:     0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		govs := seedStyleOdroidGovernors(t)
		eng, err := sim.New(sim.Config{
			Platform: plat,
			Apps: []sim.AppSpec{
				{App: bench, PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
				{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
			},
			Governors:  govs,
			Controller: ctrl,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := plat.Prewarm(OdroidPrewarmC); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(durationS); err != nil {
			t.Fatal(err)
		}
		out = append(out, SweepPoint{
			LimitC:        limitC,
			GT1FPS:        bench.GT1FPS(),
			PeakC:         thermal.ToCelsius(eng.MaxTempSeenK()),
			Migrations:    ctrl.Migrations(),
			BMLIterations: bml.Iterations(),
		})
	}
	return out
}

// TestLimitSweepMatchesSeedBehavior pins the refactor: the pool-backed
// LimitSweep must reproduce the original serial loop point for point
// (same seed per limit, same appaware config, BML execution decimated
// to model-only).
func TestLimitSweepMatchesSeedBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	const durationS, seed = 20, 3
	limits := []float64{55, 65}

	want := seedStyleLimitSweep(t, limits, durationS, seed)
	got, err := LimitSweep(limits, durationS, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("want %d points, got %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d drifted from seed behavior:\nseed:       %+v\nrefactored: %+v", i, want[i], got[i])
		}
	}
}

// TestRunScenarioValidates covers the facade builder's error paths
// for the scenarios the experiments assemble.
func TestRunScenarioValidates(t *testing.T) {
	tests := []struct {
		name string
		spec mobisim.Scenario
	}{
		{"unknown platform", mobisim.Scenario{Platform: "pixel9", Workload: "3dmark", Governor: mobisim.GovNone, DurationS: 1, Seed: 1}},
		{"unknown workload", mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "quake", Governor: mobisim.GovNone, DurationS: 1, Seed: 1}},
		{"unknown governor", mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark", Governor: "psychic", DurationS: 1, Seed: 1}},
		{"zero duration", mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark", Governor: mobisim.GovNone, Seed: 1}},
		{"stepwise is nexus-calibrated", mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark", Governor: mobisim.GovStepwise, DurationS: 1, Seed: 1}},
		{"ipa is odroid-calibrated", mobisim.Scenario{Platform: mobisim.PlatformNexus6P, Workload: "paper.io", Governor: mobisim.GovIPA, DurationS: 1, Seed: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := mobisim.New(tt.spec); err == nil {
				t.Fatalf("spec %+v should be rejected", tt.spec)
			}
		})
	}
}

// TestScenarioMetricsShape checks the metric sets of representative
// specs without long runs.
func TestScenarioMetricsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	tests := []struct {
		name   string
		spec   mobisim.Scenario
		want   []string
		absent []string
	}{
		{
			name: "odroid 3dmark+bml appaware",
			spec: mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml", Governor: mobisim.GovAppAware, LimitC: 60, DurationS: 2, Seed: 1},
			want: []string{mobisim.MetricPeakC, mobisim.MetricAvgPowerW, mobisim.MetricMigrations, mobisim.MetricGT1FPS, mobisim.MetricGT2FPS, mobisim.MetricBMLIterations},
		},
		{
			name:   "odroid nenamark ipa",
			spec:   mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: "nenamark", Governor: mobisim.GovIPA, DurationS: 2, Seed: 1},
			want:   []string{mobisim.MetricPeakC, mobisim.MetricScore, mobisim.MetricMedianFPS},
			absent: []string{mobisim.MetricBMLIterations, mobisim.MetricGT1FPS},
		},
		{
			name:   "nexus paper.io stepwise",
			spec:   mobisim.Scenario{Platform: mobisim.PlatformNexus6P, Workload: "paper.io", Governor: mobisim.GovStepwise, DurationS: 2, Seed: 1},
			want:   []string{mobisim.MetricPeakC, mobisim.MetricMedianFPS},
			absent: []string{mobisim.MetricBMLIterations},
		},
		{
			name: "nexus facebook none",
			spec: mobisim.Scenario{Platform: mobisim.PlatformNexus6P, Workload: "facebook", Governor: mobisim.GovNone, DurationS: 2, Seed: 1},
			want: []string{mobisim.MetricPeakC, mobisim.MetricMedianFPS},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := mobisim.RunScenarioMetrics(context.Background(), tt.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range tt.want {
				if _, ok := m[name]; !ok {
					t.Errorf("metric %s missing from %v", name, m)
				}
			}
			for _, name := range tt.absent {
				if _, ok := m[name]; ok {
					t.Errorf("metric %s should be absent, got %v", name, m)
				}
			}
		})
	}
}
