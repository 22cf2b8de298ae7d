package mobisim

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
)

// TestCellsByteIdentity is the external-executor contract test:
// running every cell of ExpandCells independently and folding the
// metrics through AggregateCells must reproduce RunSweep's output byte
// for byte, raw results included — the invariant the simd daemon's
// cache correctness rests on.
func TestCellsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	m := Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{GovAppAware, GovNone},
		LimitsC:    []float64{58, 70},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   3,
	}
	want, err := RunSweep(context.Background(), m, SweepConfig{Workers: 2, IncludeRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV := encodeSweep(t, want)

	cells, err := ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]map[string]float64, len(cells))
	for i, c := range cells {
		eng, err := New(c.Spec, WithoutRecording())
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		metrics[i] = eng.Metrics()
	}
	got, err := AggregateCells(cells, metrics, true)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, gotCSV := encodeSweep(t, got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("cell-wise JSON differs from RunSweep:\nwant:\n%s\ngot:\n%s", wantJSON, gotJSON)
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Errorf("cell-wise CSV differs from RunSweep")
	}
}

// TestExpandCellsShape pins the expansion invariants services depend
// on: specs are ModelOnlyBML (matching the sweep executors), keys
// match Spec.CellKey, and the limit axis collapses for limit-agnostic
// arms exactly like RunSweep's expansion.
func TestExpandCellsShape(t *testing.T) {
	m := Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark"},
		Governors:  []string{GovAppAware, GovNone},
		LimitsC:    []float64{58, 64, 70},
		Replicates: 2,
		DurationS:  1,
		BaseSeed:   1,
	}
	cells, err := ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	// appaware: 3 limits x 2 replicates; none: limit axis collapsed,
	// 1 x 2 replicates.
	if want := 3*2 + 2; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	seen := make(map[uint64]bool)
	for i, c := range cells {
		if !c.Spec.ModelOnlyBML {
			t.Errorf("cell %d: spec not ModelOnlyBML", i)
		}
		key, err := c.Spec.CellKey()
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if key != c.Key {
			t.Errorf("cell %d: stored key %016x != spec key %016x", i, c.Key, key)
		}
		if seen[key] {
			t.Errorf("cell %d: duplicate key %016x in a single expansion", i, key)
		}
		seen[key] = true
	}
}

// TestCellForScenario pins the standalone-cell contract: the key
// addresses the submitted spec (ModelOnlyBML untouched), so the same
// scenario always maps to the same key and a different one does not.
func TestCellForScenario(t *testing.T) {
	sc := Scenario{Platform: PlatformOdroidXU3, Workload: "3dmark", Governor: GovAppAware, LimitC: 60, DurationS: 1, Seed: 5}
	c1, err := CellForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Spec.ModelOnlyBML {
		t.Error("CellForScenario must not force ModelOnlyBML")
	}
	c2, err := CellForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Key != c2.Key {
		t.Errorf("same scenario, different keys: %016x vs %016x", c1.Key, c2.Key)
	}
	sc.LimitC = 61
	c3, err := CellForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Key == c1.Key {
		t.Error("different LimitC produced the same cell key")
	}
	if _, err := CellForScenario(Scenario{Platform: "no-such-device", Workload: "3dmark", DurationS: 1}); err == nil {
		t.Error("unknown platform: want error")
	}
}

// TestCellsDegenerateMatrices drives the degenerate matrix shapes —
// a single-cell matrix, an omitted limits axis (platform default), and
// an all-limit-agnostic matrix whose limit axis fully collapses —
// through the cell-wise path and pins each byte-identical to RunSweep.
func TestCellsDegenerateMatrices(t *testing.T) {
	cases := []struct {
		name      string
		m         Matrix
		wantCells int
	}{
		{
			name: "single cell",
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3},
				Workloads: []string{"3dmark"},
				Governors: []string{GovNone},
				DurationS: 1,
				BaseSeed:  1,
			},
			wantCells: 1,
		},
		{
			name: "omitted limits axis, limit-aware arm",
			m: Matrix{
				Platforms:  []string{PlatformOdroidXU3},
				Workloads:  []string{"3dmark+bml"},
				Governors:  []string{GovAppAware},
				Replicates: 2,
				DurationS:  1,
				BaseSeed:   2,
			},
			wantCells: 2, // 1 default limit x 2 replicates
		},
		{
			name: "limit axis fully collapsed",
			m: Matrix{
				Platforms: []string{PlatformNexus6P},
				Workloads: []string{"paper.io"},
				Governors: []string{GovNone, GovStepwise},
				LimitsC:   []float64{50, 60, 70},
				DurationS: 1,
				BaseSeed:  3,
			},
			wantCells: 2, // both arms limit-agnostic: 3 limits -> 1 each
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunSweep(context.Background(), tc.m, SweepConfig{Workers: 2, IncludeRaw: true})
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, wantCSV := encodeSweep(t, want)

			cells, err := ExpandCells(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != tc.wantCells {
				t.Fatalf("got %d cells, want %d", len(cells), tc.wantCells)
			}
			metrics := make([]map[string]float64, len(cells))
			for i, c := range cells {
				eng, err := New(c.Spec, WithoutRecording())
				if err != nil {
					t.Fatalf("cell %d: %v", i, err)
				}
				if err := eng.Run(); err != nil {
					t.Fatalf("cell %d: %v", i, err)
				}
				metrics[i] = eng.Metrics()
			}
			got, err := AggregateCells(cells, metrics, true)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, gotCSV := encodeSweep(t, got)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Errorf("cell-wise JSON differs from RunSweep:\nwant:\n%s\ngot:\n%s", wantJSON, gotJSON)
			}
			if !bytes.Equal(wantCSV, gotCSV) {
				t.Errorf("cell-wise CSV differs from RunSweep")
			}
		})
	}
}

// TestAggregateCellsLengthMismatch pins the arity check.
func TestAggregateCellsLengthMismatch(t *testing.T) {
	m := Matrix{
		Platforms: []string{PlatformOdroidXU3}, Workloads: []string{"3dmark"},
		Governors: []string{GovNone}, Replicates: 2, DurationS: 1, BaseSeed: 1,
	}
	cells, err := ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AggregateCells(cells, make([]map[string]float64, len(cells)-1), false); err == nil {
		t.Error("mismatched metrics length: want error")
	}
}

// Aggregation folds replicate metrics into the sweep summary types;
// these tests pin the fold every sweep executor reports through.

// aggCell builds one cell for aggregation tests.
func aggCell(limitC float64, replicate int) Cell {
	return Cell{
		Spec:      Scenario{Platform: "p", Workload: "w", Governor: "g", LimitC: limitC, DurationS: 10},
		Replicate: replicate,
	}
}

func TestAggregateFoldsReplicates(t *testing.T) {
	cells := []Cell{aggCell(50, 0), aggCell(50, 1), aggCell(50, 2), aggCell(60, 0)}
	metrics := []map[string]float64{
		{"fps": 100, "peak_c": 60},
		{"fps": 110, "peak_c": 62},
		{"fps": 90, "peak_c": 61},
		{"fps": 120, "peak_c": 70},
	}
	out, err := AggregateCells(cells, metrics, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Summaries) != 2 {
		t.Fatalf("want 2 cells, got %d", len(out.Summaries))
	}
	// Cells keep first-occurrence (matrix) order.
	if out.Summaries[0].LimitC != 50 || out.Summaries[1].LimitC != 60 {
		t.Fatalf("cell order broken: %v then %v", out.Summaries[0].LimitC, out.Summaries[1].LimitC)
	}
	s := out.Summaries[0]
	if s.Replicates != 3 {
		t.Errorf("want 3 replicates folded, got %d", s.Replicates)
	}
	fps := s.Metrics["fps"]
	want := SweepStat{Mean: 100, Min: 90, Max: 110, P50: 100, P95: 109}
	const tol = 1e-9
	if math.Abs(fps.Mean-want.Mean) > tol || math.Abs(fps.Min-want.Min) > tol || math.Abs(fps.Max-want.Max) > tol ||
		math.Abs(fps.P50-want.P50) > tol || math.Abs(fps.P95-want.P95) > tol {
		t.Errorf("fps stats = %+v, want %+v", fps, want)
	}
	// Metric names are sorted for deterministic rendering.
	if !reflect.DeepEqual(s.MetricNames, []string{"fps", "peak_c"}) {
		t.Errorf("metric names not sorted: %v", s.MetricNames)
	}
	if out.Results != nil {
		t.Errorf("raw results without includeRaw: %+v", out.Results)
	}
}

func TestAggregateSingleReplicate(t *testing.T) {
	out, err := AggregateCells([]Cell{aggCell(55, 0)}, []map[string]float64{{"fps": 42.5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Summaries[0].Metrics["fps"]
	for name, v := range map[string]float64{
		"mean": st.Mean, "min": st.Min, "max": st.Max, "p50": st.P50, "p95": st.P95,
	} {
		if v != 42.5 {
			t.Errorf("single replicate %s = %v, want 42.5", name, v)
		}
	}
	if len(out.Results) != 1 || out.Results[0].Metrics["fps"] != 42.5 {
		t.Errorf("raw results = %+v, want the one input", out.Results)
	}
}

func TestAggregateEmpty(t *testing.T) {
	out, err := AggregateCells(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Summaries) != 0 || len(out.Results) != 0 {
		t.Fatalf("want empty output, got %+v", out)
	}
}
