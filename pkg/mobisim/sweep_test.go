package mobisim

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden sweep outputs")

func goldenMatrix() Matrix {
	return Matrix{
		Platforms:  []string{PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{GovAppAware},
		LimitsC:    []float64{55, 65},
		Replicates: 1,
		DurationS:  2,
		BaseSeed:   1,
	}
}

func TestMatrixRoundTripAndValidation(t *testing.T) {
	m := goldenMatrix()
	j, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseMatrix(j)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, j2) {
		t.Errorf("matrix encode is not byte-stable:\n%s\nvs\n%s", j, j2)
	}
	if m.ExpandedSize() != 2 {
		t.Errorf("expanded size = %d, want 2", m.ExpandedSize())
	}

	bad := goldenMatrix()
	bad.Governors = []string{"psychic"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown governor arm should be rejected")
	}
	bad = goldenMatrix()
	bad.Platforms = []string{"pixel9"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown platform should be rejected")
	}
	bad = goldenMatrix()
	bad.DurationS = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero duration should be rejected")
	}
	// NaN is unreachable through JSON (no literal), so the direct-
	// construction path carries the regression: non-finite limits must
	// be rejected even when every arm is limit-agnostic and the probe
	// scenarios collapse the axis.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = goldenMatrix()
		bad.Governors = []string{GovNone}
		bad.LimitsC = []float64{v}
		if err := bad.Validate(); err == nil {
			t.Errorf("limit-agnostic matrix with limit %v should be rejected", v)
		}
		bad = goldenMatrix()
		bad.LimitsC = []float64{v}
		if err := bad.Validate(); err == nil {
			t.Errorf("limit-aware matrix with limit %v should be rejected", v)
		}
	}
	// Non-finite durations, the size bound, and repeated axis values:
	// a repeat would run identical cells and fold them into one summary
	// as fake replicates. Values compare with ==, so 0 and -0 repeat.
	// The empty-axis and non-positive checks are pinned by
	// TestMatrixScenariosValidation.
	for _, tc := range []struct {
		name string
		bust func(*Matrix)
	}{
		{"NaN duration", func(m *Matrix) { m.DurationS = math.NaN() }},
		{"oversized expansion", func(m *Matrix) { m.Replicates = MaxMatrixScenarios }},
		{"repeated platform", func(m *Matrix) { m.Platforms = []string{PlatformOdroidXU3, PlatformOdroidXU3} }},
		{"repeated workload", func(m *Matrix) { m.Workloads = []string{"3dmark+bml", "3dmark", "3dmark+bml"} }},
		{"repeated governor", func(m *Matrix) { m.Governors = []string{GovAppAware, GovAppAware} }},
		{"repeated agnostic governor", func(m *Matrix) { m.Governors = []string{GovNone, GovAppAware, GovNone} }},
		{"repeated limit", func(m *Matrix) { m.LimitsC = []float64{55, 65, 55} }},
		{"zero and negative zero limits", func(m *Matrix) { m.LimitsC = []float64{0, math.Copysign(0, -1)} }},
		{"repeated limit on agnostic arms", func(m *Matrix) { m.Governors = []string{GovNone}; m.LimitsC = []float64{60, 60} }},
	} {
		bad = goldenMatrix()
		tc.bust(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: matrix %+v should be rejected", tc.name, bad)
		}
	}
	// The duplicate bug end to end: two copies of one platform used to
	// run and report one summary with "replicates": 2.
	dup := []byte(`{"platforms":["odroid-xu3","odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1}`)
	if _, err := ParseMatrix(dup); err == nil {
		t.Error("ParseMatrix accepted a repeated platform")
	}
	// Limit collapsing: agnostic arms sweep one cell regardless of limits.
	collapsed := goldenMatrix()
	collapsed.Governors = []string{GovIPA, GovNone}
	if got := collapsed.ExpandedSize(); got != 2 {
		t.Errorf("limit-agnostic arms should collapse the limits axis: size %d, want 2", got)
	}
}

// TestSweepOutputMatchesGolden locks the serialization contract the
// spec loader depends on: a tiny 2-scenario matrix must aggregate to
// byte-stable JSON and CSV summaries. Regenerate with
// go test ./pkg/mobisim -run Golden -update
// (float metric values assume amd64; Go may fuse float ops on other
// architectures).
func TestSweepOutputMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	run := func(workers int) *SweepOutput {
		t.Helper()
		out, err := RunSweep(context.Background(), goldenMatrix(), SweepConfig{Workers: workers, IncludeRaw: true})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	encode := func(out *SweepOutput) (jsonB, csvB []byte) {
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

	gotJSON, gotCSV := encode(run(2))

	// Worker-count independence: serial and parallel pools serialize to
	// identical bytes.
	serialJSON, serialCSV := encode(run(1))
	if !bytes.Equal(gotJSON, serialJSON) || !bytes.Equal(gotCSV, serialCSV) {
		t.Fatal("sweep output differs between 1 and 2 workers")
	}

	jsonPath := filepath.Join("testdata", "sweep_golden.json")
	csvPath := filepath.Join("testdata", "sweep_golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvPath, gotCSV, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files rewritten")
		return
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("JSON sweep output drifted from golden:\ngot:\n%s\nwant:\n%s", gotJSON, wantJSON)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("CSV sweep output drifted from golden:\ngot:\n%s\nwant:\n%s", gotCSV, wantCSV)
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSweep(ctx, goldenMatrix(), SweepConfig{Workers: 2}); err == nil {
		t.Error("canceled context should abort the sweep")
	}
}
