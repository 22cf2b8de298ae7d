// Command perfbench is the mobisim benchmark. It runs one named workload
// through the program's public entry points — pkg/mobisim and the simd
// daemon over HTTP — for a fixed wall-clock window, checks every output,
// and prints one JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no instrumentation; with --trace 1 it carries the per-layer
// metrics of metrics.go, measured by a separate traced run.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner. Why each exists is
// recorded in BENCHMARK.json and on the runner itself.
var workloads = map[string]func(ctx context.Context, b *bench) (*report, error){
	"sweep-cold":     runSweepCold,
	"daemon-mixed":   runDaemonMixed,
	"explore-search": runExploreSearch,
}

// bench is one benchmark invocation's settings.
type bench struct {
	seed    int64
	seconds float64
	trace   bool
	// nproc bounds clients, workers and GOMAXPROCS.
	nproc int
	// clock corrects end-to-end times for host CPU steal.
	clock *stealClock
}

// window is the measured duration.
func (b *bench) window() time.Duration {
	return time.Duration(b.seconds * float64(time.Second))
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "0 for end-to-end metrics, 1 for per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	b := &bench{seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: nproc, clock: startStealClock()}
	rep, err := run(context.Background(), b)
	b.clock.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	out, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	env, err := json.Marshal(map[string]any{
		"workload":   *name,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("env %s\n%s\n", env, out)
}

// cpuModel reads the processor model name, "unknown" where /proc lacks it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
