package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. moves records, for a per-layer
// metric, the end-to-end metric and workload a change to that layer
// should move; later changes cite these pairs when they claim a gain.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of each entry point sees, from
// untraced runs. A job is one entry-point call: a RunSweep for
// sweep-cold, an Optimize search for explore-search, and a daemon job
// from POST to the result body fully read for daemon-mixed.
// Times are steal-corrected (see stealClock) and scaled to a reference
// machine speed (see calibrate). For the sequential entry points
// cells_per_s is the median of per-job throughput, so one stall does not
// decide it; for the daemon it is the loop's total.
var endToEnd = []metricDef{
	{name: "cells_per_s", unit: "cells/s"},
	{name: "job_p50_ms", unit: "ms"},
	{name: "job_p90_ms", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer a workload barely exercises reports its small share.
var perLayer = []metricDef{
	{"mobisim.cellkey_us", "us", "cells_per_s on explore-search"},
	{"mobisim.new_us", "us", "cells_per_s on explore-search"},
	{"mobisim.plan_us", "us", "cells_per_s on explore-search; job_p50_ms on daemon-mixed"},
	{"mobisim.run_unit_us", "us", "cells_per_s on sweep-cold"},
	{"mobisim.batch_occupancy", "ratio", "cells_per_s on sweep-cold"},
	{"mobisim.warm_fork_ratio", "ratio", "cells_per_s on daemon-mixed and explore-search"},
	{"mobisim.aggregate_us", "us", "job_p50_ms on daemon-mixed"},
	{"mobisim.encode_us", "us", "job_p50_ms on daemon-mixed"},
	{"sim.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"sim.lane_steps", "count", "cells_per_s on all workloads (work done)"},
	{"sim.snapshot_us", "us", "cells_per_s on explore-search and daemon-mixed"},
	{"sim.restore_us", "us", "cells_per_s on explore-search and daemon-mixed"},
	{"sim.snapshot_bytes", "bytes", "cells_per_s on explore-search and daemon-mixed"},
	{"sim.snapshots", "count", "cells_per_s on explore-search and daemon-mixed"},
	{"workload.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"governor.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"appaware.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"observer.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"thermal.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"sched.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"power.lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"sim.core_lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"sim.traced_lane_step_ns", "ns", "cells_per_s on sweep-cold"},
	{"trace.overhead_ratio", "ratio", "none (tracing cost)"},
	{"simd.queue_wait_ms", "ms", "job_p50_ms and job_p90_ms on daemon-mixed"},
	{"simd.run_ms", "ms", "job_p50_ms and job_p90_ms on daemon-mixed"},
	{"simd.client_ms", "ms", "job_p50_ms and job_p90_ms on daemon-mixed"},
	{"simd.mem_hit_ratio", "ratio", "cells_per_s on daemon-mixed"},
	{"simd.disk_hit_ratio", "ratio", "cells_per_s on daemon-mixed"},
	{"simd.dedup_ratio", "ratio", "cells_per_s on daemon-mixed"},
	{"simd.fsync_us", "us", "job_p50_ms on daemon-mixed"},
	{"simd.fsyncs_per_job", "count", "job_p50_ms on daemon-mixed"},
	{"explore.evaluated", "count", "cells_per_s on explore-search"},
	{"explore.cells", "count", "cells_per_s on explore-search"},
	{"explore.store_hit_ratio", "ratio", "cells_per_s on explore-search"},
	{"work.ops", "count", "none (size of the counted window)"},
	{"work.cells", "count", "cells_per_s on all workloads (work done)"},
	{"work.computed", "count", "cells_per_s on all workloads (work done)"},
	{"work.forked", "count", "cells_per_s on daemon-mixed and explore-search"},
	{"work.shared", "count", "cells_per_s on daemon-mixed and explore-search"},
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int64
	// problems are failed checks; any makes the run incorrect.
	problems []string
	values   map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts n failed operations and records why.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problem(format, args...)
}

// problem records a failed check that is not tied to an operation.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result renders the result line for the given metric set; every metric
// of the set must have been measured.
func (r *report) result(defs []metricDef) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out.Correct = r.failed == 0 && len(r.problems) == 0
	return json.Marshal(out)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// setupTimes are the spans of a run's set-ups, each preceded by one
// calibration kernel run.
type setupTimes struct{ runs, calib []span }

// seconds is setup_s: the median set-up time, each scaled by the machine
// speed around it, so one slow start does not decide it.
func (st setupTimes) seconds(clock *stealClock) float64 {
	speeds := localSpeeds(clock, st.calib, len(st.runs))
	secs := clock.durations(st.runs)
	for i := range secs {
		secs[i] /= speeds[i]
	}
	return median(secs)
}

// setupRepeated runs setup n times, tearing down every instance but
// the last, and returns the set-ups' times with the last instance's
// teardown.
func setupRepeated(n int, setup func() (func(), error)) (setupTimes, func(), error) {
	var st setupTimes
	var teardown func()
	for i := 0; i < n; i++ {
		st.calib = append(st.calib, calibrate())
		t0 := time.Now()
		td, err := setup()
		if err != nil {
			return st, nil, err
		}
		st.runs = append(st.runs, span{t0, time.Now()})
		if i < n-1 {
			td()
		} else {
			teardown = td
		}
	}
	return st, teardown, nil
}

// setupRuns is how many times each workload sets up per run.
const setupRuns = 21

// timerCost returns the cost in ns of one timed span's own clock reads
// (a time.Now and a time.Since), the bias traced spans subtract.
func timerCost() float64 {
	const n = 20000
	var batches []float64
	for b := 0; b < 5; b++ {
		var sink time.Duration
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			sink += time.Since(s)
		}
		el := time.Since(t0)
		_ = sink
		batches = append(batches, float64(el.Nanoseconds())/n)
	}
	return median(batches)
}

// Steal-corrected timing.
//
// On a shared host the hypervisor runs other guests on this machine's
// virtual CPUs; that steal time is invisible to the program yet lands in
// every wall-clock span, and on a shared two-vCPU cloud VM it has been
// seen to swing from none to half the CPU within minutes. Every
// end-to-end time is therefore wall time scaled by the share of CPU time
// not stolen over the span, which the kernel reports as the steal column
// of /proc/stat.

// stealClock samples the host's cumulative CPU steal in the background.
type stealClock struct {
	ncpu float64
	stop chan struct{}
	done chan struct{}
	once sync.Once

	mu    sync.Mutex
	at    []time.Time
	steal []float64 // cumulative steal of all CPUs, seconds
}

// stealSampleEvery is the sampling period; a span is corrected by the
// steal rate over the sample interval enclosing it.
const stealSampleEvery = 100 * time.Millisecond

// startStealClock starts sampling; Stop ends it.
func startStealClock() *stealClock {
	c := &stealClock{ncpu: float64(runtime.NumCPU()), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(stealSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.sample()
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// Stop takes a last sample and waits for the sampler to exit. Spans
// are measured after Stop, so every span is enclosed. Idempotent.
func (c *stealClock) Stop() {
	c.once.Do(func() {
		close(c.stop)
		<-c.done
		c.sample()
	})
}

func (c *stealClock) sample() {
	s := readSteal()
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.steal = append(c.steal, s)
	c.mu.Unlock()
}

// readSteal returns the cumulative steal of all CPUs in seconds, 0 where
// /proc/stat does not report it.
func readSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// span is one timed interval.
type span struct{ t0, t1 time.Time }

// seconds returns the span's steal-corrected duration: wall time times
// the share of CPU time not stolen over the enclosing sample interval.
func (c *stealClock) seconds(s span) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.at), func(k int) bool { return c.at[k].After(s.t0) }) - 1
	j := sort.Search(len(c.at), func(k int) bool { return !c.at[k].Before(s.t1) })
	wall := s.t1.Sub(s.t0).Seconds()
	if i < 0 || j >= len(c.at) || j <= i {
		return wall
	}
	f := (c.steal[j] - c.steal[i]) / (c.ncpu * c.at[j].Sub(c.at[i]).Seconds())
	return wall * (1 - math.Min(math.Max(f, 0), 0.9))
}

// durations returns the steal-corrected durations of spans.
func (c *stealClock) durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = c.seconds(s)
	}
	return out
}

// Speed calibration.
//
// Besides stealing CPU time, other guests on the host slow this one
// down while it runs — through shared caches, memory bandwidth and SMT
// siblings — by up to half again within minutes. A fixed compute kernel
// that shares no code with the program, timed beside the workload's
// operations, measures the machine's speed at that moment; end-to-end
// times are scaled by it to a reference speed, so a run's figures
// describe the program rather than its neighbours. The kernel cannot
// change with the program, so a change to the program moves the scaled
// figures exactly as much as the raw ones.

// calibRefNs is the reference duration of one calibration kernel run
// (about its duration on a quiet two-CPU Xeon VM); scaled times read as
// if every kernel run had taken this long.
const calibRefNs = 1.2e6

// calibKernel integrates a small dense RC network with forward Euler —
// the shape of the simulator's hot loop, in code of its own.
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

// calibSink keeps the kernel's result live.
var calibSink float64

// calibrate times one kernel run on every CPU at once, so it sees the
// machine's parallel capacity as the workload's workers do.
func calibrate() span {
	n := runtime.NumCPU()
	sums := make([]float64, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = calibKernel()
		}(i)
	}
	wg.Wait()
	t1 := time.Now()
	for _, v := range sums {
		calibSink += v
	}
	return span{t0, t1}
}

// speedFactor is how much slower than the reference the machine ran
// over the given kernel runs (median; 1 without any).
func speedFactor(clock *stealClock, calib []span) float64 {
	if len(calib) == 0 {
		return 1
	}
	return median(clock.durations(calib)) * 1e9 / calibRefNs
}

// localSpeeds returns, for each of n sequential operations each preceded
// by one kernel run, the speed factor over the nearest kernel runs, so a
// change of machine speed during a run is followed too.
func localSpeeds(clock *stealClock, calib []span, n int) []float64 {
	const half = 3
	out := make([]float64, n)
	for i := range out {
		lo, hi := max(0, i-half), min(len(calib), i+half+1)
		out[i] = speedFactor(clock, calib[lo:hi])
	}
	return out
}
