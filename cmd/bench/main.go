// Command bench runs the repository's core performance benchmarks
// in-process (via testing.Benchmark, the exact bodies behind the
// `go test -bench` entry points) and writes one machine-readable point
// of the perf trajectory. Each PR that touches the hot path appends a
// committed BENCH_<PR>.json so performance history lives in the repo
// next to the code that produced it.
//
// Usage:
//
//	bench -out BENCH_PR4.json          # full trajectory point
//	bench -quick                       # step benchmarks only (CI smoke)
//
// Output schema ("mobisim-bench/1", documented in README):
//
//	{
//	  "schema": "mobisim-bench/1",
//	  "go": "go1.24.0", "goos": "linux", "goarch": "amd64", "cpus": 8,
//	  "benchmarks": [
//	    {"name": "EngineStep", "ns_per_op": 580.1,
//	     "allocs_per_op": 0, "bytes_per_op": 0,
//	     "metrics": {"ns/lane-step": ...}},   // ReportMetric extras
//	    ...
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/benchkit"
)

// point is one benchmark measurement of the trajectory.
type point struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// trajectory is the full output document.
type trajectory struct {
	Schema     string  `json:"schema"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUs       int     `json:"cpus"`
	Benchmarks []point `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	quick := flag.Bool("quick", false, "run only the per-step benchmarks (skip the sweeps)")
	flag.Parse()

	type entry struct {
		name string
		fn   func(*testing.B)
	}
	entries := []entry{
		{"EngineStep", benchkit.EngineStep},
		{"EngineStepForked", benchkit.ForkedEngineStep},
		{"BatchEngineStep/width-8", benchkit.BatchEngineStep(8)},
		{"BatchEngineStep/width-4", benchkit.BatchEngineStep(4)},
		{"BatchNetworkStep/width-8", benchkit.BatchNetworkStep(8)},
		{"LeakageExp/width-1", benchkit.LeakageExp(1)},
		{"LeakageExp/width-8", benchkit.LeakageExp(8)},
		{"BatchEngineStepObserved/width-8", benchkit.BatchEngineStepObserved(8)},
		{"ExploreCandidateStep/width-8", benchkit.ExploreCandidateStep(8)},
	}
	if !*quick {
		entries = append(entries,
			entry{"ExploreGeneration/cold", benchkit.ExploreGenerationCold},
			entry{"ExploreGeneration/warm", benchkit.ExploreGenerationWarm},
			entry{"SweepParallel", benchkit.SweepParallel(0)},
			entry{"SweepBatched/width-8", benchkit.SweepBatched(8)},
			entry{"SweepWarmColdBaseline/width-8", benchkit.SweepWarmColdBaseline(8)},
			entry{"SweepWarm/batched-8", benchkit.SweepWarm(8)},
			entry{"DaemonSweepColdBatched", benchkit.DaemonSweepColdBatched},
			entry{"DaemonSweepWarm", benchkit.DaemonSweepWarm},
		)
	}

	doc := trajectory{
		Schema: "mobisim-bench/1",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
	for _, e := range entries {
		fmt.Fprintf(os.Stderr, "bench: running %s...\n", e.name)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			e.fn(b)
		})
		p := point{
			Name:        e.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		if len(res.Extra) > 0 {
			p.Metrics = make(map[string]float64, len(res.Extra))
			for k, v := range res.Extra {
				p.Metrics[k] = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, p)
		fmt.Fprintf(os.Stderr, "bench: %-24s %12.1f ns/op  %3d allocs/op\n", e.name, p.NsPerOp, p.AllocsPerOp)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
