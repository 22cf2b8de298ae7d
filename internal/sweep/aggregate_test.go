package sweep_test

// Aggregation folds replicate metrics into pkg/mobisim's sweep summary
// types; these tests pin the fold the sweep executors report through.

import (
	"math"
	"reflect"
	"testing"

	"repro/pkg/mobisim"
)

// aggCell builds one cell for aggregation tests.
func aggCell(limitC float64, replicate int) mobisim.Cell {
	return mobisim.Cell{
		Spec:      mobisim.Scenario{Platform: "p", Workload: "w", Governor: "g", LimitC: limitC, DurationS: 10},
		Replicate: replicate,
	}
}

func TestAggregateFoldsReplicates(t *testing.T) {
	cells := []mobisim.Cell{aggCell(50, 0), aggCell(50, 1), aggCell(50, 2), aggCell(60, 0)}
	metrics := []map[string]float64{
		{"fps": 100, "peak_c": 60},
		{"fps": 110, "peak_c": 62},
		{"fps": 90, "peak_c": 61},
		{"fps": 120, "peak_c": 70},
	}
	out, err := mobisim.AggregateCells(cells, metrics, false)
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
	want := mobisim.SweepStat{Mean: 100, Min: 90, Max: 110, P50: 100, P95: 109}
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
	out, err := mobisim.AggregateCells([]mobisim.Cell{aggCell(55, 0)}, []map[string]float64{{"fps": 42.5}}, true)
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
	out, err := mobisim.AggregateCells(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Summaries) != 0 || len(out.Results) != 0 {
		t.Fatalf("want empty output, got %+v", out)
	}
}
