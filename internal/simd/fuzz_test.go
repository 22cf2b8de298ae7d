package simd

// Fuzz harness for the daemon's job-submission decoder. Run
// continuously with
//
//	go test ./internal/simd -fuzz FuzzJobRequest
//
// Under plain `go test` the seed corpus runs as regression tests. The
// harness pins two contracts:
//
//  1. No request body can panic the decoder.
//  2. Parity with the CLI parsers: an accepted submission expands to a
//     non-empty, fully content-addressed cell set (every cell carries
//     a key that Spec.CellKey reproduces), because validation is
//     delegated verbatim to mobisim.ParseMatrix / ParseScenario.

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// jobSeedCorpus wraps the mobisim matrix/scenario corpus shapes in the
// job-request envelope, plus envelope-level rejection cases (both
// specs, neither spec, unknown fields, trailing data).
var jobSeedCorpus = []string{
	// Accepted shapes.
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["3dmark+bml"],"governors":["appaware"],"limits_c":[55,65],"duration_s":2,"base_seed":1}}`,
	`{"matrix": {"platforms":["nexus6p","odroid-xu3"],"workloads":["paper.io","amazon"],"governors":["none"],"duration_s":1,"replicates":2}, "include_raw": true}`,
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["nenamark"],"governors":["ipa","none"],"limits_c":[60],"duration_s":3}, "stream_samples": true}`,
	`{"scenario": {"platform":"nexus6p","workload":"paper.io","duration_s":10}}`,
	`{"scenario": {"platform":"odroid-xu3","workload":"3dmark+bml","governor":"appaware","limit_c":60,"duration_s":120,"seed":3}}`,
	`{"scenario": {"workload":"gen-bursty","governor":"none","duration_s":2,"platform_spec":` + jobFuzzPlatformSpecJSON + `}}`,
	// Envelope rejections.
	`{}`,
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1}, "scenario": {"platform":"odroid-xu3","workload":"3dmark","duration_s":1}}`,
	`{"matrx": {}}`,
	`{"matrix": null}`,
	`{"scenario": {"platform":"odroid-xu3","workload":"3dmark","duration_s":1}} trailing`,
	`not json`,
	`null`,
	`[]`,
	// Spec-level rejections the inner parsers own.
	`{"matrix": {"platforms":[],"workloads":["3dmark"],"governors":["none"],"duration_s":1}}`,
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["quake"],"governors":["none"],"duration_s":1}}`,
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["psychic"],"duration_s":1}}`,
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["none"],"duration_s":1,"replicates":1000000000}}`,
	`{"matrix": {"platforms":["odroid-xu3"],"workloads":["3dmark"],"governors":["appaware"],"limits_c":[1e999],"duration_s":1}}`,
	`{"scenario": {"platform":"pixel9","workload":"paper.io","duration_s":1}}`,
	`{"scenario": {"platform":"nexus6p","workload":"paper.io","duration_s":1,"step_s":0.5}}`,
	`{"scenario": {"platform":"odroid-xu3","workload":"3dmark","governor":"appaware","limit_c":-400,"duration_s":1}}`,
	`{"matrix": `,
}

// jobFuzzPlatformSpecJSON mirrors the inline platform spec of the
// mobisim scenario corpus.
const jobFuzzPlatformSpecJSON = `{
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

func FuzzJobRequest(f *testing.F) {
	for _, seed := range jobSeedCorpus {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobRequest(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if len(spec.Cells) == 0 {
			t.Fatalf("accepted job expanded to zero cells\nbody: %s", data)
		}
		seen := make(map[uint64]int, len(spec.Cells))
		for i, c := range spec.Cells {
			key, err := c.Spec.CellKey()
			if err != nil {
				t.Fatalf("accepted cell %d has no reproducible key: %v\nbody: %s", i, err, data)
			}
			if key != c.Key {
				t.Fatalf("cell %d: stored key %016x != recomputed %016x\nbody: %s", i, c.Key, key, data)
			}
			// Cells may legitimately share a key (duplicated axis values
			// expand to identical cells), but a shared key must mean an
			// identical executed spec — a false collision would serve one
			// cell's metrics as another's.
			if prev, ok := seen[key]; ok {
				if !reflect.DeepEqual(spec.Cells[prev].Spec, c.Spec) {
					t.Fatalf("cells %d and %d share key %016x with different specs\nbody: %s", prev, i, key, data)
				}
			} else {
				seen[key] = i
			}
		}
	})
}

// FuzzDecodeCell corrupts disk cache entries. No input may panic the
// decoder or make it allocate more than a map sized for maxCellMetrics
// entries plus a few copies of the input, whatever its count and
// length fields claim; an accepted entry holds at most maxCellMetrics
// metrics, and re-encoding it decodes to the same metrics bit for bit.
// Run it beyond the seeds with
//
//	go test ./internal/simd -run '^$' -fuzz FuzzDecodeCell
func FuzzDecodeCell(f *testing.F) {
	valid := encodeCell(testMetrics())
	for _, n := range []int{len(valid), 0, len(cellMagic) - 1, len(cellMagic), len(cellMagic) + 3, len(cellMagic) + 4, len(cellMagic) + 6, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	hostile := binary.LittleEndian.AppendUint32([]byte(cellMagic), maxCellMetrics)
	f.Add(binary.LittleEndian.AppendUint16(hostile, 0xffff))
	f.Add(binary.LittleEndian.AppendUint32([]byte(cellMagic), 16*maxCellMetrics))
	f.Add(append(append([]byte{}, valid...), 0))

	mapBytes := allocatedBytes(func() { cellSink = make(map[string]float64, maxCellMetrics) })
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string]float64
		var err error
		used := allocatedBytes(func() { m, err = decodeCell(data) })
		if bound := 2*mapBytes + 8*uint64(len(data)) + 1<<18; used > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, more than %d", len(data), used, bound)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("rejected entry returned %d metrics", len(m))
			}
			return
		}
		if len(m) > maxCellMetrics {
			t.Fatalf("accepted entry holds %d metrics, more than %d", len(m), maxCellMetrics)
		}
		back, err := decodeCell(encodeCell(m))
		if err != nil || !metricsBitwiseEqual(back, m) {
			t.Fatalf("re-encoded entry decodes to %v (%v), want %v", back, err, m)
		}
	})
}

// cellSink keeps FuzzDecodeCell's reference map on the heap.
var cellSink map[string]float64

// allocatedBytes returns how many heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
