package mobisim

// Differential and determinism tests for the sweep executor: every
// cell run alone through RunScenarioMetrics and folded through
// AggregateCells is the oracle, and RunSweep must reproduce its
// serialized output byte for byte — across platforms, batch widths,
// warm start, worker counts and GOMAXPROCS settings.

import (
	"bytes"
	"context"
	"runtime"
	"testing"
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
// widths 0, 1, 3 and 8, with warm start off and on, against the
// per-cell oracle.
func assertSweepMatchesOracle(t *testing.T, m Matrix, workers int) {
	t.Helper()
	wantJSON, wantCSV := cellOracle(t, m)
	for _, warm := range []bool{false, true} {
		for _, width := range []int{0, 1, 3, 8} {
			out, err := RunSweep(context.Background(), m, SweepConfig{Workers: workers, BatchWidth: width, WarmStart: warm, IncludeRaw: true})
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, gotCSV := encodeSweep(t, out)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("width %d warm %v: JSON differs from the per-cell oracle:\n--- sweep ---\n%s\n--- oracle ---\n%s", width, warm, gotJSON, wantJSON)
			}
			if !bytes.Equal(gotCSV, wantCSV) {
				t.Errorf("width %d warm %v: CSV differs from the per-cell oracle:\n--- sweep ---\n%s\n--- oracle ---\n%s", width, warm, gotCSV, wantCSV)
			}
		}
	}
}

// TestBatchedSweepMatchesSequential is the executor differential: for
// every batch width — including 0 and 1, one lane per unit — with warm
// start off and on, the sweep's JSON and CSV bytes must equal the
// per-cell oracle's on the nexus6p + odroid-xu3 matrix.
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
	runAt := func(procs int) (jsonB, csvB []byte) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		out, err := RunSweep(context.Background(), matrix, SweepConfig{Workers: 8, BatchWidth: 3, IncludeRaw: true})
		if err != nil {
			t.Fatal(err)
		}
		return encodeSweep(t, out)
	}
	json1, csv1 := runAt(1)
	json8, csv8 := runAt(8)
	if !bytes.Equal(json1, json8) {
		t.Errorf("batched JSON differs between GOMAXPROCS=1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", json1, json8)
	}
	if !bytes.Equal(csv1, csv8) {
		t.Errorf("batched CSV differs between GOMAXPROCS=1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", csv1, csv8)
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
