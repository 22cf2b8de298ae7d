package mobisim

// Differential and determinism tests for the sweep executor: every
// cell run alone through RunScenarioMetrics and folded through
// AggregateCells is the oracle, and RunSweep must reproduce its
// serialized output byte for byte — across platforms, batch widths,
// warm start, worker counts and GOMAXPROCS settings.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// dualPlatformMatrix sweeps both golden platforms through limit-aware
// and limit-agnostic arms — the nexus6p + odroid-xu3 differential
// matrix of the PR-4 acceptance criteria.
func dualPlatformMatrix() Matrix {
	return Matrix{
		Platforms:  []string{PlatformNexus6P, PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml", "paper.io"},
		Governors:  []string{GovAppAware, GovNone},
		LimitsC:    []float64{55, 65},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   7,
	}
}

func encodeSweep(t *testing.T, out *SweepOutput) (jsonB, csvB []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := out.EncodeJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := out.EncodeCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// cellOracle is the sweep executor's independent reference: every
// cell of m simulated alone through RunScenarioMetrics, folded through
// AggregateCells with raw results included.
func cellOracle(t *testing.T, m Matrix) (jsonB, csvB []byte) {
	t.Helper()
	cells, err := ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]map[string]float64, len(cells))
	for i, c := range cells {
		if metrics[i], err = RunScenarioMetrics(context.Background(), c.Spec); err != nil {
			t.Fatal(err)
		}
	}
	out, err := AggregateCells(cells, metrics, true)
	if err != nil {
		t.Fatal(err)
	}
	return encodeSweep(t, out)
}

// assertSweepMatchesOracle byte-compares RunSweep's JSON and CSV at
// widths 0, 1, 3 and 8, on each worker count, against the per-cell
// oracle.
func assertSweepMatchesOracle(t *testing.T, m Matrix, workers ...int) {
	t.Helper()
	wantJSON, wantCSV := cellOracle(t, m)
	for _, w := range workers {
		for _, width := range []int{0, 1, 3, 8} {
			out, err := RunSweep(context.Background(), m, SweepConfig{Workers: w, BatchWidth: width, IncludeRaw: true})
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, gotCSV := encodeSweep(t, out)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("workers %d width %d: JSON differs from the per-cell oracle:\n--- sweep ---\n%s\n--- oracle ---\n%s", w, width, gotJSON, wantJSON)
			}
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Errorf("workers %d width %d: CSV differs from the per-cell oracle:\n--- sweep ---\n%s\n--- oracle ---\n%s", w, width, gotCSV, wantCSV)
			}
		}
	}
}

// registerCorpus registers every testdata/platforms spec under prefix
// plus its name, a private name that keeps the registry free of clashes
// with other tests' specs, and returns the registered names.
func registerCorpus(t *testing.T, prefix string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "platforms", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("platform corpus: %v (%d files)", err, len(paths))
	}
	var names []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParsePlatformSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		spec.Name = prefix + spec.Name
		if err := RegisterPlatform(spec); err != nil {
			t.Fatal(err)
		}
		names = append(names, spec.Name)
	}
	return names
}

// TestSweepMatchesOracleSeeded is the tier-1 slice of the executor
// referee: fixed seeds draw small valid matrices from both presets and
// the testdata/platforms corpus, the 3dmark+bml and gen-* workloads,
// the appaware arm and one limit-agnostic arm, with limits that include
// each preset's prewarm temperature (a sentinel starting on its limit),
// and every executor configuration must reproduce the per-cell oracle.
func TestSweepMatchesOracleSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	corpus := registerCorpus(t, "seeded-")
	// Each preset with the limit-agnostic arm calibrated for it; only
	// GovNone runs on every platform.
	presets := []struct {
		name     string
		prewarmC float64
		arm      string
	}{{PlatformOdroidXU3, OdroidPrewarmC, GovIPA}, {PlatformNexus6P, NexusPrewarmC, GovStepwise}}
	workloads := []string{"3dmark+bml", "gen-bursty", "gen-periodic+bml", "gen-ramp", "gen-perturb+bml"}

	drawn := make(map[string]bool)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		preset := presets[seed%2]
		limits := []float64{preset.prewarmC, preset.prewarmC + float64(1+rng.Intn(4))}
		if rng.Intn(2) == 0 {
			limits = append(limits, preset.prewarmC+float64(6+rng.Intn(10)))
		}
		platforms, arm := []string{preset.name}, preset.arm
		if rng.Intn(2) == 0 {
			platforms, arm = append(platforms, corpus[rng.Intn(len(corpus))]), GovNone
		}
		var ws []string
		for _, i := range rng.Perm(len(workloads))[:1+rng.Intn(2)] {
			ws = append(ws, workloads[i])
		}
		m := Matrix{
			Platforms:  platforms,
			Workloads:  ws,
			Governors:  []string{GovAppAware, arm},
			LimitsC:    limits,
			Replicates: 1 + rng.Intn(2),
			DurationS:  float64(1 + rng.Intn(3)),
			BaseSeed:   rng.Int63n(1 << 20),
		}
		for _, v := range append(append(append([]string(nil), platforms...), ws...), arm) {
			drawn[v] = true
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatalf("drawn matrix %+v: %v", m, err)
			}
			t.Logf("matrix %+v", m)
			assertSweepMatchesOracle(t, m, 1, 2)
		})
	}
	for _, want := range append(append(corpus, workloads...), PlatformOdroidXU3, PlatformNexus6P, GovIPA, GovStepwise, GovNone) {
		if !drawn[want] {
			t.Errorf("no seed drew %q; widen the seed range", want)
		}
	}
}

// TestBatchedSweepMatchesSequential is the executor differential: for
// every batch width, 0 and 1 included, the sweep's JSON and CSV bytes
// must equal the per-cell oracle's on the nexus6p + odroid-xu3 matrix.
func TestBatchedSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	m := dualPlatformMatrix()
	assertSweepMatchesOracle(t, m, 1)
}

// TestBatchedSweepBytesIdenticalAcrossGOMAXPROCS mirrors the
// sequential scheduler-independence pin for the batched executor: the
// serialized output must be byte-identical whether the runtime
// schedules the batch workers on one OS thread or eight.
func TestBatchedSweepBytesIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	matrix := Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{GovAppAware},
		LimitsC:    []float64{55, 65},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   42,
	}
	// Width 0 with Workers 0 plans for GOMAXPROCS workers, so its unit
	// shape changes between the two runs.
	for _, cfg := range []SweepConfig{{Workers: 8, BatchWidth: 3}, {}} {
		runAt := func(procs int) (jsonB, csvB []byte) {
			t.Helper()
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			cfg.IncludeRaw = true
			out, err := RunSweep(context.Background(), matrix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return encodeSweep(t, out)
		}
		json1, csv1 := runAt(1)
		json8, csv8 := runAt(8)
		if !bytes.Equal(json1, json8) {
			t.Errorf("width %d: batched JSON differs between GOMAXPROCS=1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", cfg.BatchWidth, json1, json8)
		}
		if !bytes.Equal(csv1, csv8) {
			t.Errorf("width %d: batched CSV differs between GOMAXPROCS=1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", cfg.BatchWidth, csv1, csv8)
		}
	}
}

// TestBatchedSweepCancellation mirrors the sequential cancellation
// contract.
func TestBatchedSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, goldenMatrix(), SweepConfig{Workers: 2, BatchWidth: 4}); err == nil {
		t.Error("canceled context should abort the batched sweep")
	}
}

// TestRunUnitCancelIsPrompt pins cancellation latency for units run
// with zero-value options, as RunSweep, Optimize and LimitSweep run
// them: a cold one-cell unit and a warm two-limit unit, cancelled by
// an observer at t = 60 s of a 120 s cell, must stop within
// CtxCheckSteps steps instead of running the cell to its end.
func TestRunUnitCancelIsPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const cancelAtS = 60.0
	base := Scenario{
		Platform: PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: GovAppAware, DurationS: 120, Seed: 1,
	}
	low, high := base, base
	low.LimitC, high.LimitC = 52, 58
	probe, err := New(low, WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	// The cancel fires mid-chunk and the observer lags by up to one
	// trace period, so the last sample may land up to two chunks past
	// the cancel point.
	maxS := cancelAtS + 2*float64(CtxCheckSteps)*probe.Sim().StepS()
	for _, tc := range []struct {
		name  string
		specs []Scenario
		warm  bool
	}{
		{"cold one-cell", []Scenario{low}, false},
		{"warm two-limit", []Scenario{low, high}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			units, err := PlanBatchUnits(tc.specs, 0, tc.warm)
			if err != nil {
				t.Fatal(err)
			}
			if len(units) != 1 || units[0].Warm != tc.warm {
				t.Fatalf("plan: %+v, want one unit with Warm=%v", units, tc.warm)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var lastS float64
			obs := observerFunc(func(s *Sample) error {
				lastS = s.TimeS
				if s.TimeS >= cancelAtS {
					cancel()
				}
				return nil
			})
			var r BatchRunner
			// specs[0] is the lowest limit: the warm unit's sentinel.
			_, err = r.RunUnit(ctx, tc.specs, units[0], 0, BatchRunOptions{Observer: func(i int) Observer {
				if i == 0 {
					return obs
				}
				return nil
			}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled unit returned %v, want context.Canceled", err)
			}
			if lastS > maxS {
				t.Fatalf("unit ran to t=%.1fs after cancel at t=%.0fs, want <= %.1fs", lastS, cancelAtS, maxS)
			}
		})
	}
}

// TestRunUnitRejectsMixedDurations: PrefixKey leaves the duration out,
// and a unit built outside the planner may mix cells of different
// lengths. Every cell of a unit must span one step count; otherwise the
// unit fails instead of running every lane for the first cell's
// duration.
func TestRunUnitRejectsMixedDurations(t *testing.T) {
	base := Scenario{
		Platform: PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: GovAppAware, Seed: 1,
	}
	short, long := base, base
	short.LimitC, short.DurationS = 52, 3
	long.LimitC, long.DurationS = 58, 5
	var r BatchRunner
	_, err := r.RunUnit(context.Background(), []Scenario{short, long}, BatchPlanUnit{Idx: []int{0, 1}}, 0, BatchRunOptions{})
	if err == nil || !strings.Contains(err.Error(), "mixed durations") {
		t.Errorf("mixed-duration unit returned %v, want a mixed durations error", err)
	}
}

// TestRunUnitRejectsStaleGroups: a planned unit whose cells change
// after planning no longer matches the groups the planner recorded, and
// fails instead of running groups that are not its own.
func TestRunUnitRejectsStaleGroups(t *testing.T) {
	low := Scenario{Platform: PlatformOdroidXU3, Workload: "3dmark+bml", Governor: GovAppAware, LimitC: 52, DurationS: 1, Seed: 1}
	high := low
	high.LimitC = 58
	specs := []Scenario{high, low}
	units, err := PlanBatchUnits(specs, 8, true)
	if err != nil || len(units) != 1 || !units[0].Warm {
		t.Fatalf("planned %+v (%v), want one warm unit", units, err)
	}
	if got := units[0].Idx; got[0] != 1 {
		t.Fatalf("warm unit %v, want the lower limit (cell 1) first", got)
	}
	stale := units[0]
	stale.Idx = stale.Idx[:1]
	var r BatchRunner
	if _, err := r.RunUnit(context.Background(), specs, stale, 0, BatchRunOptions{}); err == nil || !strings.Contains(err.Error(), "groups end at") {
		t.Errorf("stale unit returned %v, want a groups error", err)
	}
}

// TestRunScenariosSplitsStepSizes: cells that differ only in step_s
// span different step counts and integrate with different steps, so
// the planner never puts them in one unit, cold or warm, at any width;
// each runs as it does alone. An unset step_s is the default step and
// shares a unit with an explicit one.
func TestRunScenariosSplitsStepSizes(t *testing.T) {
	base := Scenario{Platform: PlatformOdroidXU3, Workload: "3dmark", Governor: GovIPA, DurationS: 1, Seed: 1}
	for _, tc := range []struct {
		steps []float64
		units int
	}{
		{[]float64{0.001, 0.002}, 2},
		{[]float64{0.001, 0.0005}, 2},
		{[]float64{0, sim.DefaultStepS}, 1},
	} {
		specs := make([]Scenario, len(tc.steps))
		want := make([]map[string]float64, len(tc.steps))
		for i, step := range tc.steps {
			specs[i] = base
			specs[i].StepS = step
			m, err := RunScenarioMetrics(context.Background(), specs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m
		}
		for _, width := range []int{0, 8} {
			for _, warm := range []bool{false, true} {
				units, err := PlanBatchUnitsFor(specs, width, 1, warm)
				if err != nil || len(units) != tc.units {
					t.Errorf("steps %v width %d warm %v: planned %v (%v), want %d units", tc.steps, width, warm, units, err, tc.units)
				}
			}
			got, err := RunScenarios(context.Background(), specs, SweepConfig{BatchWidth: width, Workers: 1})
			if err != nil {
				t.Fatalf("steps %v width %d: %v", tc.steps, width, err)
			}
			for i := range specs {
				assertMetricsBitwiseEqual(t, fmt.Sprintf("steps %v width %d cell %d", tc.steps, width, i), want[i], got[i])
			}
		}
	}
}
