package sim

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/workload"
)

// buildDeterminismEngine assembles the Odroid 3DMark+BML scenario —
// multiple apps sharing CPU and GPU, the config most sensitive to
// iteration-order bugs — for the given seed.
func buildDeterminismEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	plat := platform.OdroidXU3(seed)
	bml := workload.NewBML()
	bml.ExecuteRatio = 0
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
	eng, err := New(Config{
		Platform: plat,
		Apps: []AppSpec{
			{App: workload.NewThreeDMark(seed), PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: littleGov,
			platform.DomBig:    bigGov,
			platform.DomGPU:    gpuGov,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plat.Prewarm(50); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineDeterminism is the golden invariant the parallel sweep pool
// relies on: two runs with the same seed must produce bitwise-identical
// traces, so results can never depend on worker interleaving.
func TestEngineDeterminism(t *testing.T) {
	const seed, durationS = 17, 5

	a := buildDeterminismEngine(t, seed)
	if err := a.Run(durationS); err != nil {
		t.Fatal(err)
	}
	b := buildDeterminismEngine(t, seed)
	if err := b.Run(durationS); err != nil {
		t.Fatal(err)
	}

	compareBitwise := func(name string, av, bv []float64) {
		t.Helper()
		if len(av) != len(bv) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(av), len(bv))
		}
		if len(av) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				t.Fatalf("%s: sample %d differs bitwise: %x vs %x (%v vs %v)",
					name, i, math.Float64bits(av[i]), math.Float64bits(bv[i]), av[i], bv[i])
			}
		}
	}

	compareBitwise("MaxTempSeries", a.Recording().MaxTempSeries().Values(), b.Recording().MaxTempSeries().Values())
	for _, id := range platform.DomainIDs() {
		compareBitwise("FreqSeries:"+id.String(), freqValues(t, a, id), freqValues(t, b, id))
	}
	if math.Float64bits(a.MaxTempSeenK()) != math.Float64bits(b.MaxTempSeenK()) {
		t.Errorf("MaxTempSeenK differs: %v vs %v", a.MaxTempSeenK(), b.MaxTempSeenK())
	}
	if a.Meter().TotalEnergyJ() != b.Meter().TotalEnergyJ() {
		t.Errorf("total energy differs: %v vs %v", a.Meter().TotalEnergyJ(), b.Meter().TotalEnergyJ())
	}
}

// TestEngineDeterminismDistinctSeeds guards against the degenerate
// "deterministic because nothing is random" failure mode: different
// seeds must actually produce different runs.
func TestEngineDeterminismDistinctSeeds(t *testing.T) {
	a := buildDeterminismEngine(t, 1)
	if err := a.Run(5); err != nil {
		t.Fatal(err)
	}
	b := buildDeterminismEngine(t, 2)
	if err := b.Run(5); err != nil {
		t.Fatal(err)
	}
	av, bv := a.Recording().MaxTempSeries().Values(), b.Recording().MaxTempSeries().Values()
	for i := range av {
		if i < len(bv) && math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return // diverged, as expected
		}
	}
	t.Error("seeds 1 and 2 produced identical max-temperature traces")
}

// freqValues returns one domain's recorded frequency trace.
func freqValues(t *testing.T, e *Engine, id platform.DomainID) []float64 {
	t.Helper()
	s, ok := e.Recording().FreqSeries(id)
	if !ok {
		t.Fatalf("no frequency trace for %s", id)
	}
	return s.Values()
}
