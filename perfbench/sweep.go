package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/pkg/mobisim"
)

// sweep-cold runs mobisim.RunSweep cold — batch width 8, Workers =
// nproc, no warm start — over long cells on three thermal topologies
// (the Odroid and Nexus presets and the corpus tricluster spec), two
// workload mixes, the appaware and none arms, several limits and seed
// replicates. Per-lane stepping dominates: there is no cache, snapshot,
// HTTP or per-cell set-up cost worth speaking of, and the topologies'
// node counts and partial batches exercise the lockstep kernel.

// triclusterSpec is the corpus platform the sweep registers.
const triclusterSpec = "testdata/platforms/tricluster.json"

const (
	// sweepGateCells is how many cells of every timed sweep the
	// correctness gate re-runs on the scalar path.
	sweepGateCells = 2
	// traceWindowSweeps is how many sweeps the traced run replays.
	traceWindowSweeps = 2
)

// sweepMatrix is sweep i of the seed's sequence. The axes are fixed and
// the replicate seeds come from the seed and i, so every sweep does
// comparable work and a run's throughput does not hinge on which limits
// a seed drew. Each platform's 36 cells pack into four full batches and
// one partial one; fifteen units keep the split over two workers even
// enough that per-sweep times are not bimodal.
func sweepMatrix(seed int64, i int) mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3, mobisim.PlatformNexus6P, "tricluster"},
		Workloads:  []string{"3dmark+bml", "gen-bursty+bml"},
		Governors:  []string{mobisim.GovAppAware, mobisim.GovNone},
		LimitsC:    []float64{52, 57, 62, 67, 72},
		Replicates: 3,
		DurationS:  4,
		BaseSeed:   seed*1_000_003 + int64(i)*1009,
	}
}

// pickLimits draws n distinct thermal limits from 52..78 °C, sorted.
// Every limit is above both presets' prewarm temperatures: prefix warm
// start is not byte-identical to a cold run when a group's lowest limit
// is at or below the prewarm temperature, so daemon jobs stay clear of
// that region.
func pickLimits(rng *rand.Rand, n int) []float64 {
	var limits []float64
	for _, k := range rng.Perm(14)[:n] {
		limits = append(limits, float64(52+2*k))
	}
	sort.Float64s(limits)
	return limits
}

func sweepConfig(b *bench) mobisim.SweepConfig {
	return mobisim.SweepConfig{Workers: b.nproc, BatchWidth: batchWidth, IncludeRaw: true}
}

func runSweepCold(ctx context.Context, b *bench) (*report, error) {
	r := newReport()
	cfg := sweepConfig(b)
	setups, teardown, err := setupRepeated(setupRuns, func() (func(), error) {
		if _, err := mobisim.RegisterPlatformFile(triclusterSpec); err != nil {
			return nil, err
		}
		warm := sweepMatrix(b.seed, -1)
		warm.DurationS = 1
		_, err := mobisim.RunSweep(ctx, warm, cfg)
		return func() {}, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer teardown()
	if b.trace {
		return r, traceSweep(ctx, b, r)
	}

	// The gate re-runs a seeded sample of every sweep's cells on the
	// scalar path; only the sampled results are kept, so memory does not
	// grow with the number of sweeps a run completes.
	type check struct {
		sweep int
		res   mobisim.SweepResult
		spec  mobisim.Scenario
	}
	var checks []check
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	var spans, calib []span
	var cells []int
	start := time.Now()
	for i := 0; time.Since(start) < b.window(); i++ {
		m := sweepMatrix(b.seed, i)
		n := m.ExpandedSize()
		r.attempted += int64(n)
		c := calibrate()
		t0 := time.Now()
		out, err := mobisim.RunSweep(ctx, m, cfg)
		t1 := time.Now()
		if err != nil {
			r.fail(int64(n), "sweep %d: %v", i, err)
			continue
		}
		if len(out.Results) != n {
			r.fail(int64(n), "sweep %d returned %d cells, want %d", i, len(out.Results), n)
			continue
		}
		spans, calib = append(spans, span{t0, t1}), append(calib, c)
		cells = append(cells, n)
		for k := 0; k < sweepGateCells; k++ {
			res := out.Results[rng.Intn(len(out.Results))]
			checks = append(checks, check{i, res, mobisim.Scenario{
				Platform: res.Platform, Workload: res.Workload, Governor: res.Governor,
				LimitC: res.LimitC, DurationS: m.DurationS, Seed: res.Seed,
			}})
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.clock.Stop()
	setJobMetrics(r, b.clock, spans, cells, calib)
	r.set("setup_s", setups.seconds(b.clock))
	r.set("peak_rss_mb", rss)

	bad := parallel(b.nproc, len(checks), func(i int) error {
		got, err := mobisim.RunScenarioMetrics(ctx, checks[i].spec)
		if err != nil {
			return err
		}
		if !sameMetrics(got, checks[i].res.Metrics) {
			return fmt.Errorf("scalar rerun differs")
		}
		return nil
	})
	for i, err := range bad {
		if err != nil {
			r.fail(1, "sweep %d cell %d: %v", checks[i].sweep, checks[i].res.Index, err)
		}
	}
	return r, nil
}

// setJobMetrics sets throughput and latency from sequential jobs, each
// preceded by one calibration kernel run: the median of per-job
// throughput and the latency quantiles, on the steal-corrected clock
// scaled to the reference speed.
func setJobMetrics(r *report, clock *stealClock, spans []span, cells []int, calib []span) {
	secs := clock.durations(spans)
	speeds := localSpeeds(clock, calib, len(spans))
	var rates, latMs []float64
	for i, d := range secs {
		d /= speeds[i]
		rates = append(rates, ratio(float64(cells[i]), d))
		latMs = append(latMs, d*1e3)
	}
	r.set("cells_per_s", median(rates))
	r.set("job_p50_ms", quantile(latMs, 0.5))
	r.set("job_p90_ms", quantile(latMs, 0.9))
}

// traceSweep is sweep-cold's traced run: it replays the first sweeps of
// the seed's sequence through the mobisim seam and runs their cells
// through the step-phase passes.
func traceSweep(ctx context.Context, b *bench, r *report) error {
	s := &seam{timer: timerCost()}
	var specs0 []mobisim.Scenario
	var want0 []map[string]float64
	var counts0 workCounts
	for i := 0; i < traceWindowSweeps; i++ {
		m := sweepMatrix(b.seed, i)
		n := int64(m.ExpandedSize())
		r.attempted += n
		out, err := mobisim.RunSweep(ctx, m, sweepConfig(b))
		if err != nil {
			return err
		}
		var body bytes.Buffer
		if err := out.EncodeJSON(&body); err != nil {
			return err
		}
		cells, err := mobisim.ExpandCells(m)
		if err != nil {
			return err
		}
		specs := cellSpecs(cells)
		metrics, err := s.run(ctx, specs, false)
		if err != nil {
			return err
		}
		got, err := s.encode(cells, metrics, true)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, body.Bytes()) {
			r.fail(n, "sweep %d: seam replay output differs from RunSweep", i)
		}
		if i == 0 {
			specs0, want0, counts0 = specs, metrics, s.work
		}
	}
	steps := int64(0)
	for _, spec := range specs0 {
		n, _ := cellSteps(spec)
		steps += int64(n)
	}
	if counts0.laneSteps != steps || counts0.computed != len(specs0) {
		r.problem("sweep 0 counted %d lane-steps over %d computed cells, want %d over %d", counts0.laneSteps, counts0.computed, steps, len(specs0))
	}
	if err := recount(ctx, s.timer, specs0, false, counts0, r); err != nil {
		return err
	}
	if err := forkSample(s, specs0, want0, r); err != nil {
		return err
	}
	s.report(r)
	r.set("work.ops", traceWindowSweeps)
	setExploreZero(r)
	if err := runPhases(ctx, specs0, want0, b.window(), r); err != nil {
		return err
	}
	return probeDaemon(ctx, b, specs0, want0, r)
}

// cellSpecs returns the executable specs of cells.
func cellSpecs(cells []mobisim.Cell) []mobisim.Scenario {
	specs := make([]mobisim.Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	return specs
}

// recount replays specs on a fresh seam and checks the work counts
// repeat exactly.
func recount(ctx context.Context, timer float64, specs []mobisim.Scenario, warm bool, want workCounts, r *report) error {
	again := &seam{timer: timer}
	if _, err := again.run(ctx, specs, warm); err != nil {
		return err
	}
	if again.work != want {
		r.problem("work counts did not repeat: %+v then %+v", want, again.work)
	}
	return nil
}

// forkSample times snapshot and restore on three cells and checks each
// forked run reproduces the cell's metrics.
func forkSample(s *seam, specs []mobisim.Scenario, want []map[string]float64, r *report) error {
	for _, i := range []int{0, len(specs) / 2, len(specs) - 1} {
		ok, err := s.fork(specs[i], want[i])
		if err != nil {
			return err
		}
		if !ok {
			r.fail(1, "cell %d: run forked from a snapshot differs", i)
		}
	}
	return nil
}

// parallel runs fn(0..n-1) on workers goroutines and returns each
// call's error.
func parallel(workers, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}
