package appaware

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// DefaultConfig mirrors the paper's parameters, which New also fills
// in for zero fields: a 10 s horizon and a 100 ms control period (the
// 1 s power window is the engine's).
func DefaultConfig() Config {
	return Config{
		HorizonS:  10,
		IntervalS: 0.1,
	}
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Governor {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

func TestNewValidates(t *testing.T) {
	bad := []Config{
		{HorizonS: -1, IntervalS: 0.1},
		{HorizonS: math.NaN(), IntervalS: 0.1},
		{HorizonS: 10, IntervalS: -0.1},
		{HorizonS: 10, IntervalS: 0.1, ThermalLimitK: -5},
		{HorizonS: math.Inf(1), IntervalS: 0.1},
		{HorizonS: 10, IntervalS: math.NaN()},
		{HorizonS: 10, IntervalS: math.Inf(1)},
		{HorizonS: 10, IntervalS: math.Inf(-1)},
		{HorizonS: 10, IntervalS: 0.1, ThermalLimitK: math.NaN()},
		{HorizonS: 10, IntervalS: 0.1, ThermalLimitK: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d (%+v) should fail", i, cfg)
		}
	}
	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("default config should validate: %v", err)
	}
	if g.Name() != "appaware" {
		t.Error("wrong name")
	}
	if g.IntervalS() != 0.1 {
		t.Errorf("interval = %v, want the paper's 100 ms", g.IntervalS())
	}
}

func TestZeroedConfigGetsDefaults(t *testing.T) {
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.HorizonS != 10 || g.cfg.IntervalS != 0.1 {
		t.Errorf("zeroed config should default: %+v", g.cfg)
	}
}

func TestEventKindString(t *testing.T) {
	if EventMigrate.String() != "migrate" {
		t.Error("event name wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Error("unknown kind should include number")
	}
}

// fastPlatform is a miniature big.LITTLE platform with second-scale
// thermal time constants, so governor decisions play out quickly in
// tests. Structure and physics match the presets; only the scales
// differ.
func fastPlatform() *platform.Platform {
	bigTable := dvfs.MustTable(
		dvfs.OPP{FreqHz: 500e6, VoltageV: 0.9},
		dvfs.OPP{FreqHz: 1000e6, VoltageV: 1.0},
		dvfs.OPP{FreqHz: 2000e6, VoltageV: 1.2},
	)
	littleTable := dvfs.MustTable(
		dvfs.OPP{FreqHz: 200e6, VoltageV: 0.9},
		dvfs.OPP{FreqHz: 800e6, VoltageV: 1.0},
	)
	gpuTable := dvfs.MustTable(
		dvfs.OPP{FreqHz: 200e6, VoltageV: 0.9},
		dvfs.OPP{FreqHz: 600e6, VoltageV: 1.1},
	)
	return platform.MustNew(platform.Spec{
		Name:     "fast-test",
		AmbientC: 25,
		Nodes: []platform.NodeSpec{
			{Name: "little", CapacitanceJPerK: 0.1},
			{Name: "big", CapacitanceJPerK: 0.2},
			{Name: "gpu", CapacitanceJPerK: 0.2},
			{Name: "mem", CapacitanceJPerK: 0.1},
			{Name: "board", CapacitanceJPerK: 0.5, GAmbientWPerK: 0.1},
		},
		Couplings: []platform.CouplingSpec{
			{A: "little", B: "board", GWPerK: 0.9},
			{A: "big", B: "board", GWPerK: 0.9},
			{A: "gpu", B: "board", GWPerK: 0.9},
			{A: "mem", B: "board", GWPerK: 0.6},
		},
		Domains: []platform.DomainSpec{
			{
				ID: platform.DomLittle, Table: littleTable, Cores: 4,
				Model: power.DomainModel{
					Name: "little", CeffF: 1.1e-10, IdleW: 0.02,
					Leakage: power.LeakageParams{K: 1e-4, Q: 1800},
				},
				Rail: power.RailLittle, NodeName: "little",
			},
			{
				ID: platform.DomBig, Table: bigTable, Cores: 4,
				Model: power.DomainModel{
					Name: "big", CeffF: 6e-10, IdleW: 0.04,
					Leakage: power.LeakageParams{K: 3e-4, Q: 1800},
				},
				Rail: power.RailBig, NodeName: "big",
			},
			{
				ID: platform.DomGPU, Table: gpuTable, Cores: 1,
				Model: power.DomainModel{
					Name: "gpu", CeffF: 2.2e-9, IdleW: 0.03,
					Leakage: power.LeakageParams{K: 2e-4, Q: 1800},
				},
				Rail: power.RailGPU, NodeName: "gpu",
			},
		},
		SensorNode:    "big",
		SensorPeriodS: 0.01,
		MemIdleW:      0.05,
		MemPerGHz:     0.02,
		ThermalLimitC: 55,
	})
}

// buildEngine runs a GPU workload (registered real-time) plus a BML CPU
// hog on the big cluster, mirroring Section IV-C's scenario.
func buildEngine(t *testing.T, ctl sim.Controller) (*sim.Engine, *workload.BML) {
	t.Helper()
	bml := workload.NewBML()
	bml.ExecuteRatio = 0 // pure model; skip real kernel execution in tests
	gpuApp := workload.MustFrameApp(workload.FrameAppConfig{
		Name: "gpu-app",
		Phases: []workload.Phase{
			{DurationS: 300, CPUCyclesPerFrame: 2e6, GPUCyclesPerFrame: 12e6, TargetFPS: 60},
		},
		Loop: true,
	})
	e, err := sim.New(sim.Config{
		Platform: fastPlatform(),
		Apps: []sim.AppSpec{
			{App: gpuApp, PID: 100, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 200, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: governor.Powersave{},
			platform.DomBig:    governor.Performance{},
			platform.DomGPU:    governor.Performance{},
		},
		Controller: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, bml
}

func TestMigratesPowerHungryBackgroundTask(t *testing.T) {
	g := MustNew(DefaultConfig())
	e, _ := buildEngine(t, g)
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if g.Migrations() == 0 {
		t.Fatal("governor never migrated despite hot fixed point")
	}
	// The victim must be BML (PID 200), never the registered real-time
	// app (PID 100).
	for _, ev := range g.Events() {
		if ev.Kind == EventMigrate && ev.PID == 100 {
			t.Error("real-time app was migrated; registration violated")
		}
	}
	task, ok := e.Scheduler().TaskRef(200)
	if !ok || task.Cluster != sched.Little {
		t.Errorf("BML should end on little, got %+v", task)
	}
	rt, _ := e.Scheduler().TaskRef(100)
	if rt.Cluster != sched.Big {
		t.Error("real-time app should stay on big")
	}
}

func TestNoMigrationWhenCool(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThermalLimitK = thermal.ToKelvin(300) // unreachable limit
	g := MustNew(cfg)
	e, _ := buildEngine(t, g)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if g.Migrations() != 0 {
		t.Errorf("migrations = %d, want 0 under an unreachable limit", g.Migrations())
	}
	if g.Predictions() == 0 {
		t.Error("governor should still be predicting")
	}
}

func TestMigrationEventRecordsPrediction(t *testing.T) {
	g := MustNew(DefaultConfig())
	e, _ := buildEngine(t, g)
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	evs := g.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	ev := evs[0]
	if ev.Kind != EventMigrate {
		t.Fatalf("first event = %v, want migrate", ev.Kind)
	}
	limitK := thermal.ToKelvin(55)
	if ev.PredictedFixedK != 0 && ev.PredictedFixedK <= limitK {
		t.Errorf("predicted fixed point %v K should exceed the 55°C limit (or be 0 for runaway)", ev.PredictedFixedK)
	}
	if ev.TimeToLimitS < 0 || ev.TimeToLimitS > DefaultConfig().HorizonS {
		t.Errorf("time-to-limit %v outside (0, horizon]", ev.TimeToLimitS)
	}
}

func TestOnlyVictimPenalized(t *testing.T) {
	// The headline property (Table II): after migration, the real-time
	// app's grants are untouched while BML's execution rate drops.
	g := MustNew(DefaultConfig())
	e, bml := buildEngine(t, g)
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if g.Migrations() > 0 {
		t.Skip("migration landed before baseline window; tune demands")
	}
	itersBefore := bml.Iterations()
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if g.Migrations() == 0 {
		t.Fatal("no migration")
	}
	itersAfter := bml.Iterations() - itersBefore
	// BML on little at 200 MHz vs big at 2 GHz: the post-migration rate
	// must be well below the pre-migration rate (both windows include
	// some mixed time; demand a 2x drop on the average rate).
	rateBefore := float64(itersBefore) / 5
	rateAfter := float64(itersAfter) / 20
	if rateAfter > rateBefore/2 {
		t.Errorf("BML rate before %.0f/s, after %.0f/s; victim not throttled", rateBefore, rateAfter)
	}
}

func TestEventsAreCopies(t *testing.T) {
	g := MustNew(DefaultConfig())
	e, _ := buildEngine(t, g)
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	evs := g.Events()
	if len(evs) == 0 {
		t.Skip("no events to check")
	}
	evs[0].PID = -999
	if g.Events()[0].PID == -999 {
		t.Error("Events must return a copy")
	}
}
