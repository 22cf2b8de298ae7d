package mobisim

// Fuzz harnesses for the declarative spec layer. Run continuously with
//
//	go test ./pkg/mobisim -fuzz FuzzParseScenario
//	go test ./pkg/mobisim -fuzz FuzzParseMatrix
//	go test ./pkg/mobisim -fuzz FuzzParseObjective
//	go test ./pkg/mobisim -fuzz FuzzParsePlatformSpec
//	go test ./pkg/mobisim -fuzz FuzzRestore
//
// Under plain `go test` the seed corpus (f.Add plus any checked-in
// crashers under testdata/fuzz/) runs as regression tests. The
// harnesses pin three contracts:
//
//  1. No input can panic the decoder.
//  2. Decode → encode → decode converges after one pass (Normalize is
//     idempotent and JSON rendering is stable).
//  3. Validation parity: any spec ParseScenario/ParseMatrix accepts is
//     also accepted by the engine builder — Validate rejects everything
//     the engine would later reject, so sweeps cannot die mid-run on a
//     spec error.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// scenarioSeedCorpus covers the accepted shapes, every rejection path
// the validator owns, and historical near-miss inputs (engine-only
// rejections that Validate must now catch).
var scenarioSeedCorpus = []string{
	`{"platform":"nexus6p","workload":"paper.io","duration_s":10}`,
	`{"platform":"odroid-xu3","workload":"3dmark+bml","governor":"appaware","limit_c":60,"duration_s":120,"seed":3}`,
	`{"platform":"odroid-xu3","workload":"nenamark","governor":"ipa","duration_s":5,"cpu_governor":"ondemand"}`,
	`{"platform":"nexus6p","workload":"stickman-hook","governor":"none","duration_s":1,"prewarm_c":-1}`,
	`{"platform":"nexus6p","workload":"amazon","duration_s":2,"step_s":0.002,"trace_period_s":0.2,"task_window_s":2}`,
	// Rejected: unknown axis values, malformed JSON, trailing data.
	`{"platform":"pixel9","workload":"paper.io","duration_s":1}`,
	`{"platform":"nexus6p","workload":"quake","duration_s":1}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1}{"x":1}`,
	`{"platform":`,
	`null`,
	`[]`,
	// Engine-rejection parity cases: these decode but must fail Validate
	// because sim.New or appaware.New would refuse them.
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"step_s":0.5}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"step_s":0.01,"trace_period_s":0.001}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"task_window_s":1e-9}`,
	`{"platform":"odroid-xu3","workload":"3dmark","governor":"appaware","limit_c":-400,"duration_s":1}`,
	`{"platform":"odroid-xu3","workload":"3dmark","governor":"stepwise","duration_s":1}`,
	`{"platform":"nexus6p","workload":"paper.io","governor":"ipa","duration_s":1}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1e999}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1e30}`,
	// Non-finite spec floats (JSON has no NaN literal; huge exponents
	// collapse to +Inf): every float field must reject them, including
	// ones only consumed downstream of Normalize.
	`{"platform":"nexus6p","workload":"paper.io","governor":"none","duration_s":1,"limit_c":1e999}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"prewarm_c":1e999}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"trace_period_s":1e999}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"task_window_s":1e999}`,
	`{"platform":"nexus6p","workload":"gen-bursty","governor":"none","duration_s":1,"generator":{"kind":"bursty","touch_rate_per_s":1e999}}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"step_s":1e-9}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"task_window_s":3000,"step_s":0.001}`,
	// Generated workloads: default knobs, tuned knobs, and rejections
	// (kind mismatch, knobs on a non-generated workload, bad bounds).
	`{"platform":"nexus6p","workload":"gen-bursty","governor":"none","duration_s":2}`,
	`{"platform":"odroid-xu3","workload":"gen-ramp+bml","governor":"appaware","duration_s":2,"generator":{"kind":"ramp","horizon_s":30,"cpu_cycles_per_frame_max":4e7,"gpu_cycles_per_frame_max":8e6}}`,
	`{"platform":"nexus6p","workload":"gen-periodic","governor":"none","duration_s":1,"generator":{"kind":"bursty"}}`,
	`{"platform":"nexus6p","workload":"gen-bursty","governor":"none","duration_s":1,"generator":{"kind":"bursty","burst_ratio":0.9}}`,
	`{"platform":"nexus6p","workload":"gen-perturb","governor":"none","duration_s":1,"generator":{"kind":"perturb","base":[]}}`,
	`{"platform":"nexus6p","workload":"paper.io","governor":"none","duration_s":1,"generator":{"kind":"bursty"}}`,
	`{"platform":"nexus6p","workload":"gen-bursty","governor":"none","duration_s":1,"generator":{"kind":"bursty","burst_ratio":7}}`,
	`{"platform":"nexus6p","workload":"gen-perturb","governor":"none","duration_s":1,"generator":{"kind":"perturb","horizon_s":1e18,"phase_mean_s":1e-9}}`,
	// Inline platform specs: a self-contained scenario, a name
	// mismatch, a reserved name, and an invalid (NaN-free but broken)
	// network.
	`{"workload":"gen-bursty","governor":"none","duration_s":2,"platform_spec":` + fuzzPlatformSpecJSON + `}`,
	`{"platform":"something-else","workload":"paper.io","governor":"none","duration_s":1,"platform_spec":` + fuzzPlatformSpecJSON + `}`,
	`{"platform":"nexus6p","workload":"paper.io","duration_s":1,"platform_spec":{"name":"nexus6p","thermal_limit_c":50,"nodes":[{"name":"die","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1}],"domains":[],"sensor":{"node":"die"}}}`,
	`{"workload":"paper.io","governor":"none","duration_s":1,"platform_spec":{"name":"island","thermal_limit_c":50,"nodes":[{"name":"die","capacitance_j_per_k":1}],"domains":[],"sensor":{"node":"die"}}}`,
}

// fuzzPlatformSpecJSON is a complete valid platform spec embedded in
// the scenario and platform-spec corpora.
const fuzzPlatformSpecJSON = `{
  "name": "fuzzdie",
  "thermal_limit_c": 50,
  "nodes": [
    {"name": "little", "capacitance_j_per_k": 1.0},
    {"name": "big", "capacitance_j_per_k": 1.5},
    {"name": "gpu", "capacitance_j_per_k": 1.5},
    {"name": "board", "capacitance_j_per_k": 6, "g_ambient_w_per_k": 0.08}
  ],
  "couplings": [
    {"a": "little", "b": "board", "g_w_per_k": 0.5},
    {"a": "big", "b": "board", "g_w_per_k": 0.5},
    {"a": "gpu", "b": "board", "g_w_per_k": 0.5}
  ],
  "domains": [
    {"id": "little", "cores": 4, "ceff_f": 1.5e-10, "idle_w": 0.03, "leak_k": 1e-4,
     "opps": [{"freq_hz": 400000000, "voltage_v": 0.85}, {"freq_hz": 1200000000, "voltage_v": 1.05}]},
    {"id": "big", "cores": 4, "ceff_f": 6e-10, "idle_w": 0.05, "leak_k": 3e-4,
     "opps": [{"freq_hz": 400000000, "voltage_v": 0.9}, {"freq_hz": 1800000000, "voltage_v": 1.2}]},
    {"id": "gpu", "cores": 1, "ceff_f": 2e-9, "idle_w": 0.04, "leak_k": 2e-4,
     "opps": [{"freq_hz": 200000000, "voltage_v": 0.85}, {"freq_hz": 600000000, "voltage_v": 1.05}]}
  ],
  "sensor": {"node": "big"}
}`

func FuzzParseScenario(f *testing.F) {
	for _, seed := range scenarioSeedCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		// Accepted specs are normalized: re-validation must agree.
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed scenario fails re-validation: %v\nspec: %+v", err, s)
		}
		// Round trip: encode → decode reproduces the same spec.
		// (DeepEqual, not ==: inline platform specs and generator knobs
		// live behind pointers.)
		out, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted scenario fails to encode: %v\nspec: %+v", err, s)
		}
		s2, err := ParseScenario(out)
		if err != nil {
			t.Fatalf("re-decode of accepted scenario rejected: %v\njson: %s", err, out)
		}
		if !reflect.DeepEqual(s2, s) {
			t.Fatalf("scenario round trip drifted:\nfirst:  %+v\nsecond: %+v", s, s2)
		}
		// Validation parity: the engine builder must accept what
		// Validate accepted.
		if _, err := New(s); err != nil {
			t.Fatalf("Validate accepted a spec the engine rejects: %v\nspec: %+v", err, s)
		}
	})
}

// matrixSeedCorpus mirrors the scenario corpus at the sweep level,
// including expansion-bound and per-cell rejection cases.
var matrixSeedCorpus = []string{
	`{"platforms":["odroid-xu3"],"workloads":["3dmark+bml"],"governors":["appaware"],"limits_c":[55,65],"duration_s":2,"base_seed":1}`,
	`{"platforms":["nexus6p","odroid-xu3"],"workloads":["paper.io","amazon"],"governors":["none"],"duration_s":1,"replicates":2}`,
	`{"platforms":["odroid-xu3"],"workloads":["nenamark"],"governors":["ipa","none"],"limits_c":[60],"duration_s":3}`,
	// Rejected: unknown values, empty axes, malformed JSON.
	`{"platforms":[],"workloads":["3dmark"],"governors":["none"],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["quake"],"governors":["none"],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["psychic"],"duration_s":1}`,
	`{"platforms":`,
	// Engine-rejection parity: per-cell incompatibilities and hostile
	// expansion sizes must fail Validate, not the sweep.
	`{"platforms":["nexus6p"],"workloads":["paper.io"],"governors":["ipa"],"duration_s":1}`,
	`{"platforms":["nexus6p","odroid-xu3"],"workloads":["paper.io"],"governors":["stepwise"],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["appaware"],"limits_c":[-400],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1,"replicates":1000000000}`,
	// Non-finite limits previously slipped through on limit-agnostic
	// matrices: the collapsed probe never examined the raw axis values.
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"limits_c":[1e999],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["appaware"],"limits_c":[1e999],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1e999}`,
	// Repeated axis values would run identical cells and fold them into
	// one summary as fake replicates; 0 and -0 are one limit.
	`{"platforms":["odroid-xu3","odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark","3dmark"],"governors":["none"],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none","appaware","none"],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["appaware"],"limits_c":[0,-0],"duration_s":1}`,
	`{"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"limits_c":[60,60],"duration_s":1}`,
}

func FuzzParseMatrix(f *testing.F) {
	for _, seed := range matrixSeedCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseMatrix(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed matrix fails re-validation: %v\nmatrix: %+v", err, m)
		}
		out, err := m.JSON()
		if err != nil {
			t.Fatalf("accepted matrix fails to encode: %v\nmatrix: %+v", err, m)
		}
		m2, err := ParseMatrix(out)
		if err != nil {
			t.Fatalf("re-decode of accepted matrix rejected: %v\njson: %s", err, out)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("matrix round trip drifted:\nfirst:  %+v\nsecond: %+v", m, m2)
		}
		// The expansion must succeed and stay within bounds, and every
		// expanded cell must itself build: probe one scenario per cell
		// group by building the first expansion point's engine-facing
		// spec through Validate (New for every cell would make the
		// harness quadratic; per-cell Validate is what RunSweep relies
		// on, and FuzzParseScenario covers Validate→New parity).
		n := m.ExpandedSize()
		if n <= 0 || n > MaxMatrixScenarios {
			t.Fatalf("accepted matrix has out-of-bounds expansion %d\nmatrix: %+v", n, m)
		}
		if n > 256 {
			return
		}
		// Small matrices expand for real: the closed-form size is the
		// cell count, and every summary row folds exactly Replicates
		// cells (a repeated axis value would fold more).
		cells, err := ExpandCells(m)
		if err != nil {
			t.Fatalf("accepted matrix fails to expand: %v\nmatrix: %+v", err, m)
		}
		if len(cells) != n {
			t.Fatalf("ExpandCells gave %d cells, ExpandedSize %d\nmatrix: %+v", len(cells), n, m)
		}
		metrics := make([]map[string]float64, len(cells))
		for i := range metrics {
			metrics[i] = map[string]float64{"index": float64(i)}
		}
		agg, err := AggregateCells(cells, metrics, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range agg.Summaries {
			if s.Replicates != m.Replicates {
				t.Fatalf("summary %s/%s/%s/%g folds %d results, want %d\nmatrix: %+v",
					s.Platform, s.Workload, s.Governor, s.LimitC, s.Replicates, m.Replicates, m)
			}
		}
	})
}

// platformSpecSeedCorpus covers accepted platform specs and every
// rejection family the validator owns: malformed or hostile OPP
// tables, asymmetric/duplicate conductance entries, NaN/Inf fields,
// structural breakage, and malformed JSON.
var platformSpecSeedCorpus = []string{
	fuzzPlatformSpecJSON,
	// Accepted: an explicit empty couplings array (every node couples
	// to ambient directly) — must round-trip despite omitempty.
	`{"name":"flat","thermal_limit_c":50,"couplings":[],"nodes":[{"name":"little","capacitance_j_per_k":1,"g_ambient_w_per_k":0.05},{"name":"big","capacitance_j_per_k":1,"g_ambient_w_per_k":0.05},{"name":"gpu","capacitance_j_per_k":1,"g_ambient_w_per_k":0.05}],"domains":[{"id":"little","cores":2,"ceff_f":1e-10,"opps":[{"freq_hz":500000000,"voltage_v":0.9}]},{"id":"big","cores":2,"ceff_f":5e-10,"opps":[{"freq_hz":1000000000,"voltage_v":1.0}]},{"id":"gpu","cores":1,"ceff_f":2e-9,"opps":[{"freq_hz":400000000,"voltage_v":0.95}]}],"sensor":{"node":"big"}}`,
	// Rejected: malformed OPP tables.
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"little","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1},{"name":"big","capacitance_j_per_k":1},{"name":"gpu","capacitance_j_per_k":1}],"domains":[{"id":"little","cores":1,"ceff_f":1e-10,"opps":[]},{"id":"big","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1}]},{"id":"gpu","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1}]}],"sensor":{"node":"big"}}`,
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"little","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1},{"name":"big","capacitance_j_per_k":1},{"name":"gpu","capacitance_j_per_k":1}],"domains":[{"id":"little","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1},{"freq_hz":1000,"voltage_v":1.1}]},{"id":"big","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1}]},{"id":"gpu","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1}]}],"sensor":{"node":"big"}}`,
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"little","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1},{"name":"big","capacitance_j_per_k":1},{"name":"gpu","capacitance_j_per_k":1}],"domains":[{"id":"little","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":2000,"voltage_v":1},{"freq_hz":1000,"voltage_v":1.2}]},{"id":"big","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1}]},{"id":"gpu","cores":1,"ceff_f":1e-10,"opps":[{"freq_hz":1000,"voltage_v":1}]}],"sensor":{"node":"big"}}`,
	// Rejected: asymmetric / duplicate conductance entries.
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"a","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1},{"name":"b","capacitance_j_per_k":1}],"couplings":[{"a":"a","b":"b","g_w_per_k":0.5},{"a":"b","b":"a","g_w_per_k":0.9}],"domains":[],"sensor":{"node":"a"}}`,
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"a","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1},{"name":"b","capacitance_j_per_k":1}],"couplings":[{"a":"a","b":"b","g_w_per_k":0.5},{"a":"a","b":"b","g_w_per_k":0.5}],"domains":[],"sensor":{"node":"a"}}`,
	// Rejected: non-finite fields (JSON has no NaN literal, so the
	// interesting cases are huge exponents collapsing to +Inf).
	`{"name":"x","ambient_c":1e999,"thermal_limit_c":50,"nodes":[{"name":"a","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1}],"domains":[],"sensor":{"node":"a"}}`,
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"a","capacitance_j_per_k":1e999,"g_ambient_w_per_k":0.1}],"domains":[],"sensor":{"node":"a"}}`,
	// Rejected: structural breakage.
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"a","capacitance_j_per_k":1}],"domains":[],"sensor":{"node":"a"}}`,
	`{"name":"x","thermal_limit_c":-300,"nodes":[{"name":"a","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1}],"domains":[],"sensor":{"node":"a"}}`,
	`{"name":"x","thermal_limit_c":50,"nodes":[{"name":"a","capacitance_j_per_k":1,"g_ambient_w_per_k":0.1}],"domains":[],"sensor":{"node":"ghost"}}`,
	// Rejected: malformed JSON, unknown fields, trailing data.
	`{"name":`,
	`{"name":"x","fan_rpm":9000}`,
	`null`,
	`[]`,
}

// objectiveSeedCorpus covers accepted search specs and the rejection
// families the optimize validator owns: non-finite bounds, empty
// mutation sets, contradictory constraints, unknown metrics/params/
// goals/values, mixed mutation shapes, and malformed JSON.
var objectiveSeedCorpus = []string{
	// Accepted: limit/governor search with a ceiling constraint.
	`{"scenario":{"platform":"odroid-xu3","workload":"gen-bursty+bml","governor":"appaware","duration_s":2,"seed":42},"objective":{"metric":"bml_iterations","goal":"maximize"},"constraints":[{"metric":"peak_c","max":90}],"mutations":[{"param":"limit_c","min":55,"max":75,"step":5},{"param":"cpu_governor","values":["stock","performance"]}],"seed":7}`,
	// Accepted: minimize with defaults and a platform-parameter axis.
	`{"scenario":{"platform":"odroid-xu3","workload":"gen-bursty","governor":"appaware","duration_s":1},"objective":{"metric":"peak_c","goal":"minimize"},"mutations":[{"param":"platform.ambient_c","min":20,"max":30,"step":5}]}`,
	// Accepted: inline platform base with domain/node mutations.
	`{"scenario":{"workload":"gen-bursty","governor":"none","duration_s":1,"platform_spec":` + fuzzPlatformSpecJSON + `},"objective":{"metric":"avg_power_w","goal":"minimize"},"mutations":[{"param":"platform.domain.big.ceff_f","min":2e-10,"max":8e-10,"step":3e-10},{"param":"platform.node.board.capacitance_j_per_k","min":4,"max":8,"step":2}]}`,
	// Accepted: replicated search with explicit knobs.
	`{"name":"rep","scenario":{"platform":"nexus6p","workload":"gen-bursty","governor":"none","duration_s":1},"objective":{"metric":"avg_power_w","goal":"minimize"},"mutations":[{"param":"platform.thermal_limit_c","min":60,"max":80,"step":10}],"replicates":2,"neighbors":4,"max_generations":8,"patience":3,"min_delta":0.001,"seed":9}`,
	// Rejected: non-finite bounds (JSON has no NaN literal; huge
	// exponents collapse to +Inf) in mutations, constraints, min_delta.
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":55,"max":1e999,"step":5}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"constraints":[{"metric":"peak_c","max":1e999}],"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}],"min_delta":1e999}`,
	// Rejected: empty or oversized mutation sets, duplicate params.
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"}}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5},{"param":"limit_c","min":50,"max":60,"step":5}]}`,
	// Rejected: contradictory or unbounded constraints.
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"constraints":[{"metric":"peak_c","min":80,"max":60}],"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"constraints":[{"metric":"peak_c"}],"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}`,
	// Rejected: unknown metric / goal / param / categorical value,
	// mixed mutation shapes, hostile grids.
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"fps"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c","goal":"extremize"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"platform.fan_rpm","min":1,"max":2,"step":1}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"cpu_governor","values":["turbo"]}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5,"values":["x"]}]}`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":0,"max":1000000,"step":1e-6}]}`,
	// Rejected: per-point probes catching invalid extreme scenarios.
	`{"scenario":{"platform":"odroid-xu3","workload":"3dmark","governor":"appaware","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":-400,"max":60,"step":20}]}`,
	`{"scenario":{"platform":"odroid-xu3","workload":"3dmark","governor":"appaware","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"governor","values":["appaware","stepwise"]}]}`,
	// Rejected: invalid base scenario, malformed JSON, trailing data.
	`{"scenario":{"platform":"pixel9","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}`,
	`{"scenario":`,
	`{"scenario":{"platform":"nexus6p","workload":"paper.io","duration_s":1},"objective":{"metric":"peak_c"},"mutations":[{"param":"limit_c","min":55,"max":75,"step":5}]}{"x":1}`,
	`null`,
	`[]`,
}

func FuzzParseObjective(f *testing.F) {
	for _, seed := range objectiveSeedCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseOptimize(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed optimize spec fails re-validation: %v\nspec: %+v", err, spec)
		}
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("accepted optimize spec fails to encode: %v\nspec: %+v", err, spec)
		}
		spec2, err := ParseOptimize(out)
		if err != nil {
			t.Fatalf("re-decode of accepted optimize spec rejected: %v\njson: %s", err, out)
		}
		if !reflect.DeepEqual(spec2, spec) {
			t.Fatalf("optimize spec round trip drifted:\nfirst:  %+v\nsecond: %+v", spec, spec2)
		}
		// Plan parity: an accepted spec must build a search plan whose
		// start point materializes back into a valid scenario.
		plan, err := buildSearchPlan(spec)
		if err != nil {
			t.Fatalf("Validate accepted a spec the planner rejects: %v\nspec: %+v", err, spec)
		}
		s, err := plan.candidate(plan.start)
		if err != nil {
			t.Fatalf("start point fails to materialize: %v\nspec: %+v", err, spec)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("start candidate fails validation: %v\nscenario: %+v", err, s)
		}
	})
}

func FuzzParsePlatformSpec(f *testing.F) {
	for _, seed := range platformSpecSeedCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParsePlatformSpec(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed platform spec fails re-validation: %v\nspec: %+v", err, spec)
		}
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("accepted platform spec fails to encode: %v\nspec: %+v", err, spec)
		}
		spec2, err := ParsePlatformSpec(out)
		if err != nil {
			t.Fatalf("re-decode of accepted platform spec rejected: %v\njson: %s", err, out)
		}
		if !reflect.DeepEqual(spec2, spec) {
			t.Fatalf("platform spec round trip drifted:\nfirst:  %+v\nsecond: %+v", spec, spec2)
		}
		// Validation parity: an accepted spec must compile — and the
		// compiled platform must carry the spec's identity.
		p, err := spec.Compile(1)
		if err != nil {
			t.Fatalf("Validate accepted a spec the compiler rejects: %v\nspec: %+v", err, spec)
		}
		if p.Name() != spec.Name {
			t.Fatalf("compiled platform name %q != spec name %q", p.Name(), spec.Name)
		}
	})
}

// FuzzRestore pins that no corrupt snapshot can hang an engine or
// exhaust memory. It flips one byte of (XOR with xor) or truncates at
// off a 150-step snapshot of an odroid 3dmark+bml appaware engine and
// restores it into a fresh engine; Restore may reject the blob, but a
// blob it accepts must then run 50 steps within 10 s, allocating at
// most 64 MiB. The first seed is the historical crasher: XOR 0x12 at
// byte 36 (in the step count) loaded with a nil error, and the next
// step closed one-second FPS buckets up to a clock of 7.7e7 s until
// memory ran out.
func FuzzRestore(f *testing.F) {
	spec := Scenario{Platform: PlatformOdroidXU3, Workload: "3dmark+bml", Governor: GovAppAware, LimitC: 60, DurationS: 1, Seed: 1}
	base, err := New(spec, WithoutRecording())
	if err != nil {
		f.Fatal(err)
	}
	if err := base.RunSteps(150); err != nil {
		f.Fatal(err)
	}
	blob, err := base.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(36), byte(0x12), false)
	f.Add(uint32(0), byte(0), false)
	f.Add(uint32(24), byte(0x40), false) // the clock
	f.Add(uint32(len(blob)/2), byte(0), true)
	f.Add(uint32(len(blob)-1), byte(0x80), false)
	f.Fuzz(func(t *testing.T, off uint32, xor byte, truncate bool) {
		b := bytes.Clone(blob)
		if i := int(off % uint32(len(b))); truncate {
			b = b[:i]
		} else {
			b[i] ^= xor
		}
		eng, err := New(spec, WithoutRecording())
		if err != nil {
			t.Fatal(err)
		}
		if eng.Restore(b) != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = eng.RunSteps(50) // a step error is an acceptable outcome
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("offset %d xor %#x truncate %v: 50 steps after the restore did not finish in 10 s", off, xor, truncate)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
			t.Fatalf("offset %d xor %#x truncate %v: 50 steps after the restore allocated %d bytes", off, xor, truncate, n)
		}
	})
}
