package workload

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden generated-workload traces")

// genSpecs returns one representative spec per generator kind plus a
// customized perturb spec with its own base script.
func genSpecs() []GenSpec {
	specs := []GenSpec{
		DefaultGenSpec(GenBursty),
		DefaultGenSpec(GenPeriodic),
		DefaultGenSpec(GenRamp),
		DefaultGenSpec(GenPerturb),
	}
	custom := GenSpec{
		Kind:                 GenPerturb,
		HorizonS:             30,
		TargetFPS:            40,
		CPUCyclesPerFrameMin: 1 * mega,
		CPUCyclesPerFrameMax: 80 * mega,
		GPUCyclesPerFrameMax: 6 * mega,
		Base: []GenPhase{
			{DurationS: 5, CPUCyclesPerFrame: 60 * mega, GPUCyclesPerFrame: 2 * mega, TouchRatePerS: 1},
			{DurationS: 10, CPUCyclesPerFrame: 10 * mega, GPUCyclesPerFrame: 5 * mega, TargetFPS: 60},
		},
		Seed: 11,
	}
	custom.Normalize()
	specs = append(specs, custom)
	return specs
}

// Property: phase durations of every kind sum to the horizon (within
// float accumulation error) and every phase is strictly positive.
func TestGeneratedPhasesSumToHorizon(t *testing.T) {
	for _, spec := range genSpecs() {
		for seed := int64(0); seed < 20; seed++ {
			app, err := spec.Build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Kind, seed, err)
			}
			sum := 0.0
			for i, p := range app.cfg.Phases {
				if p.DurationS <= 0 {
					t.Fatalf("%s seed %d: phase %d duration %v not positive", spec.Kind, seed, i, p.DurationS)
				}
				sum += p.DurationS
			}
			if math.Abs(sum-spec.HorizonS) > 1e-9*spec.HorizonS {
				t.Errorf("%s seed %d: phase durations sum to %v, want %v", spec.Kind, seed, sum, spec.HorizonS)
			}
		}
	}
}

// Property: demand is bounded by the spec everywhere — never negative,
// never above TargetFPS × the per-frame cycle maxima.
func TestGeneratedDemandBoundedBySpec(t *testing.T) {
	for _, spec := range genSpecs() {
		cpuMax, gpuMax := spec.MaxDemandHz()
		for seed := int64(0); seed < 10; seed++ {
			app, err := spec.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4000; i++ {
				nowS := float64(i) * 0.05 // two horizons of samples: loop coverage
				d := app.Demand(nowS)
				if d.CPUHz < 0 || d.CPUHz > cpuMax*(1+1e-12) {
					t.Fatalf("%s seed %d t=%v: CPU demand %v outside [0, %v]", spec.Kind, seed, nowS, d.CPUHz, cpuMax)
				}
				if d.GPUHz < 0 || d.GPUHz > gpuMax*(1+1e-12) {
					t.Fatalf("%s seed %d t=%v: GPU demand %v outside [0, %v]", spec.Kind, seed, nowS, d.GPUHz, gpuMax)
				}
				app.Advance(nowS, 0.05, Resources{CPUSpeedHz: d.CPUHz, GPUSpeedHz: d.GPUHz})
			}
		}
	}
}

// Property: the same (spec, seed) pair builds the bitwise-identical
// workload — identical phase scripts and identical demand series,
// touch events included.
func TestGeneratedWorkloadSeedDeterminism(t *testing.T) {
	for _, spec := range genSpecs() {
		a, err := spec.Build(42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build(42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.cfg.Phases, b.cfg.Phases) {
			t.Fatalf("%s: same seed produced different phase scripts", spec.Kind)
		}
		for i := 0; i < 2000; i++ {
			nowS := float64(i) * 0.01
			da, db := a.Demand(nowS), b.Demand(nowS)
			if da != db {
				t.Fatalf("%s: same seed diverged at t=%v: %+v vs %+v", spec.Kind, nowS, da, db)
			}
			a.Advance(nowS, 0.01, Resources{CPUSpeedHz: da.CPUHz})
			b.Advance(nowS, 0.01, Resources{CPUSpeedHz: db.CPUHz})
		}

		// And different seeds must actually explore the space.
		c, err := spec.Build(43)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.cfg.Phases, c.cfg.Phases) {
			t.Errorf("%s: seeds 42 and 43 produced identical scripts", spec.Kind)
		}
	}
}

func TestGenSpecValidateRejections(t *testing.T) {
	base := DefaultGenSpec(GenBursty)
	cases := []struct {
		name string
		edit func(g *GenSpec)
	}{
		{"unknown kind", func(g *GenSpec) { g.Kind = "chaotic" }},
		{"NaN horizon", func(g *GenSpec) { g.HorizonS = math.NaN() }},
		{"negative horizon", func(g *GenSpec) { g.HorizonS = -1 }},
		{"Inf cycle max", func(g *GenSpec) { g.CPUCyclesPerFrameMax = math.Inf(1) }},
		{"max below min", func(g *GenSpec) { g.CPUCyclesPerFrameMax = g.CPUCyclesPerFrameMin / 2 }},
		{"no budget at all", func(g *GenSpec) {
			g.CPUCyclesPerFrameMin, g.CPUCyclesPerFrameMax = 0, 0
			g.GPUCyclesPerFrameMin, g.GPUCyclesPerFrameMax = 0, 0
		}},
		{"burst ratio above 1", func(g *GenSpec) { g.BurstRatio = 1.5 }},
		{"negative touch rate", func(g *GenSpec) { g.TouchRatePerS = -1 }},
		{"hostile phase count", func(g *GenSpec) { g.HorizonS = 1e9; g.PhaseMeanS = 0.001 }},
		{"bad base phase", func(g *GenSpec) { g.Base = []GenPhase{{DurationS: -1}} }},
	}
	for _, tc := range cases {
		g := base
		tc.edit(&g)
		if g.Validate() == nil {
			t.Errorf("%s: Validate accepted a spec it must reject", tc.name)
		}
	}
	// And the builder honors Validate: accepted specs always build.
	for _, spec := range genSpecs() {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: default spec invalid: %v", spec.Kind, err)
		}
		if _, err := spec.Build(0); err != nil {
			t.Errorf("%s: Validate-accepted spec failed to build: %v", spec.Kind, err)
		}
	}
}

// The record→replay round trip: samples recorded from a generated app,
// rendered to CSV and parsed back, reproduce the recorded demand
// bitwise at every grid point.
func TestRecordReplayRoundTrip(t *testing.T) {
	app, err := DefaultGenSpec(GenBursty).Build(7)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := RecordTrace(app, 30, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 300 {
		t.Fatalf("recorded %d samples, want 300", len(samples))
	}
	csv := EncodeReplayCSV(samples)
	replay, err := ParseReplayCSV("replayed", string(csv), false)
	if err != nil {
		t.Fatalf("parse recorded CSV: %v", err)
	}
	for _, s := range samples {
		d := replay.Demand(s.TimeS)
		if d.CPUHz != s.CPUHz || d.GPUHz != s.GPUHz {
			t.Fatalf("replay diverged at t=%v: got (%v, %v), want (%v, %v)",
				s.TimeS, d.CPUHz, d.GPUHz, s.CPUHz, s.GPUHz)
		}
	}
	// The CSV itself round-trips: re-encoding the parsed samples gives
	// identical bytes.
	again, err := RecordTrace(replay, 30, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeReplayCSV(again), csv) {
		t.Error("record → encode → parse → record is not byte-stable")
	}
}

// TestGeneratedTraceGolden pins the generator's output across releases:
// the bursty kind at seed 1 must keep producing exactly the checked-in
// trace. Regenerate with
//
//	go test ./internal/workload -run Golden -update
func TestGeneratedTraceGolden(t *testing.T) {
	app, err := DefaultGenSpec(GenBursty).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := RecordTrace(app, 60, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got := EncodeReplayCSV(samples)
	path := filepath.Join("..", "..", "testdata", "traces", "gen_bursty_seed1.csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden trace rewritten")
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("generated trace drifted from golden %s (%d vs %d bytes); rerun with -update if intentional",
			path, len(got), len(want))
	}
}
