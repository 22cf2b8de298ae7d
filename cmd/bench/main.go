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
//	  "calib_ns": {"before": 1186846, "after": 1070093},
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
	"slices"
	"testing"
	"time"

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
	Schema     string    `json:"schema"`
	Go         string    `json:"go"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	CPUs       int       `json:"cpus"`
	CalibNs    calibSpan `json:"calib_ns"`
	Benchmarks []point   `json:"benchmarks"`
}

// calibSpan is the calibration kernel's time, taken before the first
// benchmark and after the last. The host's speed moves from day to day;
// dividing a ns/op figure by calib_ns compares two files' code rather
// than their days, and a wide before/after gap flags a host that
// changed speed during the run.
type calibSpan struct {
	Before float64 `json:"before"`
	After  float64 `json:"after"`
}

// calibKernel is a fixed float workload: 1500 explicit steps of heat
// diffusion among 16 fully coupled nodes, the shape of the step's
// thermal arithmetic. Its result depends on every operation, so none
// can be elided.
func calibKernel() float64 {
	const n = 16
	var temp, flow [n]float64
	for i := range temp {
		temp[i] = 300 + float64(i)
	}
	for step := 0; step < 1500; step++ {
		for i := 0; i < n; i++ {
			d := 0.0
			for j := 0; j < n; j++ {
				d += float64((i+j)%5+1) * 1e-2 * (temp[j] - temp[i])
			}
			flow[i] = d
		}
		for i := range temp {
			temp[i] += 1e-3 * flow[i]
		}
	}
	return temp[0]
}

// calibSink keeps calibKernel's result live.
var calibSink float64

// calibrate returns the median wall time, in ns, of 21 calibKernel runs.
func calibrate() float64 {
	ns := make([]float64, 21)
	for i := range ns {
		t0 := time.Now()
		calibSink += calibKernel()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	slices.Sort(ns)
	return ns[len(ns)/2]
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
		{"LeakageExp/width-2", benchkit.LeakageExp(2)},
		{"LeakageExp/width-4", benchkit.LeakageExp(4)},
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
	doc.CalibNs.Before = calibrate()
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
	doc.CalibNs.After = calibrate()
	fmt.Fprintf(os.Stderr, "bench: calibration kernel %.0f ns before, %.0f ns after\n", doc.CalibNs.Before, doc.CalibNs.After)

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
