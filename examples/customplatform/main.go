// Example customplatform defines a platform entirely in code as a
// declarative spec — no preset, no JSON file on disk — and sweeps a
// seeded generated workload across its thermal-limit axis, printing a
// compact per-limit summary. It is the "open scenario space" loop:
// invent a device, invent a workload, measure the governor's bargain.
//
// Run with: go run ./examples/customplatform
package main

import (
	"context"
	"fmt"
	"os"

	"repro/pkg/mobisim"
)

func main() {
	// A fanless handheld: small die masses, one case node to ambient,
	// modest ladders. Everything not set here (ambient, sensor period,
	// DVFS latency, leakage activation, rail wiring) is defaulted by
	// the spec layer.
	spec, err := mobisim.ParsePlatformSpec([]byte(`{
	  "name": "handheld",
	  "thermal_limit_c": 42,
	  "nodes": [
	    {"name": "little", "capacitance_j_per_k": 0.6},
	    {"name": "big", "capacitance_j_per_k": 0.8},
	    {"name": "gpu", "capacitance_j_per_k": 0.9},
	    {"name": "case", "capacitance_j_per_k": 15, "g_ambient_w_per_k": 0.06}
	  ],
	  "couplings": [
	    {"a": "little", "b": "case", "g_w_per_k": 0.4},
	    {"a": "big", "b": "case", "g_w_per_k": 0.45},
	    {"a": "gpu", "b": "case", "g_w_per_k": 0.4}
	  ],
	  "domains": [
	    {"id": "little", "cores": 4, "ceff_f": 1.6e-10, "idle_w": 0.03, "leak_k": 1.2e-4,
	     "opps": [{"freq_hz": 350000000, "voltage_v": 0.8}, {"freq_hz": 1000000000, "voltage_v": 0.95}, {"freq_hz": 1500000000, "voltage_v": 1.1}]},
	    {"id": "big", "cores": 2, "ceff_f": 6.5e-10, "idle_w": 0.05, "leak_k": 4e-4,
	     "opps": [{"freq_hz": 400000000, "voltage_v": 0.85}, {"freq_hz": 1200000000, "voltage_v": 1.0}, {"freq_hz": 1900000000, "voltage_v": 1.2}]},
	    {"id": "gpu", "cores": 1, "ceff_f": 2.5e-9, "idle_w": 0.04, "leak_k": 2.5e-4,
	     "opps": [{"freq_hz": 200000000, "voltage_v": 0.85}, {"freq_hz": 450000000, "voltage_v": 1.0}, {"freq_hz": 650000000, "voltage_v": 1.1}]}
	  ],
	  "sensor": {"node": "big", "noise_k": 0.05, "resolution_k": 0.1}
	}`))
	if err != nil {
		fatal(err)
	}
	if err := mobisim.RegisterPlatform(spec); err != nil {
		fatal(err)
	}

	// Sweep the application-aware governor's limit axis under a bursty
	// generated game, four seed replicates per cell.
	matrix := mobisim.Matrix{
		Platforms:  []string{spec.Name},
		Workloads:  []string{"gen-bursty"},
		Governors:  []string{mobisim.GovAppAware, mobisim.GovNone},
		LimitsC:    []float64{38, 42, 46},
		Replicates: 4,
		DurationS:  60,
		BaseSeed:   1,
	}
	matrix.Normalize()
	out, err := mobisim.RunSweep(context.Background(), matrix, mobisim.SweepConfig{})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s: %d cells\n", spec.Name, len(out.Summaries))
	for _, s := range out.Summaries {
		fps := s.Metrics[mobisim.MetricMedianFPS]
		fmt.Printf("  %-8s limit %4.0f°C  peak %5.1f°C  avg %5.2f W  median FPS %5.1f (p95 %5.1f)\n",
			s.Governor, s.LimitC,
			s.Metrics[mobisim.MetricPeakC].Mean,
			s.Metrics[mobisim.MetricAvgPowerW].Mean,
			fps.P50, fps.P95)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "customplatform:", err)
	os.Exit(1)
}
