package simd

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/pkg/mobisim"
)

func mustCell(t *testing.T, sc mobisim.Scenario) mobisim.Cell {
	t.Helper()
	cell, err := mobisim.CellForScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// coldMetrics runs the cell's spec on a fresh engine the way the cold
// sweep path does — the reference every scheduler origin must match
// bitwise.
func coldMetrics(t *testing.T, spec mobisim.Scenario) map[string]float64 {
	t.Helper()
	eng, err := mobisim.New(spec, mobisim.WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Metrics()
}

// runCell runs one cell through RunCells at width 1 and reports the
// origin its onCell hook saw.
func runCell(ctx context.Context, sched *Scheduler, cell mobisim.Cell, tap SampleFunc) (map[string]float64, Origin, error) {
	var origin Origin
	var tapFor func(int) SampleFunc
	if tap != nil {
		tapFor = func(int) SampleFunc { return tap }
	}
	metrics, _, err := sched.RunCells(ctx, []mobisim.Cell{cell}, 1, 1,
		func(_ int, o Origin, _ map[string]float64) { origin = o }, tapFor)
	if err != nil {
		return nil, "", err
	}
	return metrics[0], origin, nil
}

func newTestScheduler(t *testing.T) (*Scheduler, *Cache) {
	t.Helper()
	cache, err := NewCache(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return NewScheduler(context.Background(), cache), cache
}

// TestSchedulerColdThenCached pins the basic origin ladder: first call
// computes, the second is a memory hit, a scheduler over the same dir
// with a cold memory tier hits disk — and every origin returns metrics
// bitwise-identical to a fresh cold engine run.
func TestSchedulerColdThenCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, cache := newTestScheduler(t)
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark",
		Governor: mobisim.GovNone, DurationS: 1, Seed: 3,
	})
	want := coldMetrics(t, cell.Spec)

	var samples []Sample
	m1, origin, err := runCell(context.Background(), sched, cell, func(s Sample) { samples = append(samples, s) })
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed {
		t.Fatalf("first run origin: %s", origin)
	}
	if !metricsBitwiseEqual(m1, want) {
		t.Fatalf("computed metrics differ from cold run:\ngot  %v\nwant %v", m1, want)
	}
	if len(samples) == 0 {
		t.Error("computed cell delivered no observer samples")
	}

	m2, origin, err := runCell(context.Background(), sched, cell, func(s Sample) { t.Error("cache hit delivered samples") })
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginMemCache || !metricsBitwiseEqual(m2, want) {
		t.Fatalf("second run: origin %s", origin)
	}

	fresh := NewScheduler(context.Background(), mustReopen(t, cache))
	m3, origin, err := runCell(context.Background(), fresh, cell, nil)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDiskCache || !metricsBitwiseEqual(m3, want) {
		t.Fatalf("disk run: origin %s", origin)
	}
	if got := sched.Stats().Computed; got != 1 {
		t.Errorf("computed counter: %d, want 1", got)
	}
}

// TestRunCellsSplitsStepSizes: a job whose cells differ only in
// step_s runs them in separate units, each as it runs alone, at the
// default width and at one lane.
func TestRunCellsSplitsStepSizes(t *testing.T) {
	var cells []mobisim.Cell
	for _, step := range []float64{0.001, 0.002, 0.0005} {
		cells = append(cells, mustCell(t, mobisim.Scenario{
			Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark",
			Governor: mobisim.GovIPA, DurationS: 1, Seed: 1, StepS: step,
		}))
	}
	for _, width := range []int{0, 1} {
		sched, _ := newTestScheduler(t)
		got, _, err := sched.RunCells(context.Background(), cells, width, 1, nil, nil)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, c := range cells {
			if !metricsBitwiseEqual(got[i], coldMetrics(t, c.Spec)) {
				t.Errorf("width %d: cell %d (step_s %g) differs from its lone run", width, i, c.Spec.StepS)
			}
		}
	}
}

// TestRunCellsBoundsFlightSamples runs one cell that traces every step
// for more than maxFlightSamples steps: its tap must receive exactly
// maxFlightSamples samples, in time order, and the truncated stream
// must leave the cell's metrics equal to a lone run's.
func TestRunCellsBoundsFlightSamples(t *testing.T) {
	spec := mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark",
		Governor: mobisim.GovIPA, DurationS: 66, Seed: 1,
		StepS: 0.001, TracePeriodS: 0.001,
	}
	if steps := spec.DurationS / spec.StepS; steps <= maxFlightSamples {
		t.Fatalf("%v steps do not exceed the %d-sample bound", steps, maxFlightSamples)
	}
	sched, _ := newTestScheduler(t)
	var samples []Sample
	got, _, err := runCell(context.Background(), sched, mustCell(t, spec), func(s Sample) { samples = append(samples, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != maxFlightSamples {
		t.Fatalf("tap received %d samples, want %d", len(samples), maxFlightSamples)
	}
	for i := 1; i < len(samples); i++ {
		if !(samples[i].TimeS > samples[i-1].TimeS) {
			t.Fatalf("sample %d at %v s follows one at %v s", i, samples[i].TimeS, samples[i-1].TimeS)
		}
	}
	want, err := mobisim.RunScenarioMetrics(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !metricsBitwiseEqual(got, want) {
		t.Error("metrics differ from a lone run")
	}
}

func mustReopen(t *testing.T, c *Cache) *Cache {
	t.Helper()
	fresh, err := NewCache(c.Dir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestSchedulerSingleflight is the dedup contract: concurrent RunCells
// calls for one CellKey share a single computation — the simulation
// runs exactly once, every waiter gets bitwise-identical metrics, and
// the joiners are counted as deduped.
func TestSchedulerSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	// A long-horizon cell keeps the flight open for hundreds of
	// milliseconds — orders of magnitude beyond the joiners' launch
	// latency after they observe the flight in Stats, and wide enough
	// that a descheduled poller cannot miss the whole flight.
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovNone, DurationS: 120, Seed: 1,
	})
	type res struct {
		metrics map[string]float64
		origin  Origin
		err     error
	}
	results := make(chan res, 4)
	run := func() {
		m, o, err := runCell(context.Background(), sched, cell, nil)
		results <- res{m, o, err}
	}
	go run()
	deadline := time.Now().Add(10 * time.Second)
	for sched.Stats().Inflight == 0 {
		if sched.Stats().Computed > 0 {
			t.Fatal("flight completed before the joiners launched; raise the cell's DurationS")
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 3; i++ {
		go run()
	}
	var first map[string]float64
	origins := map[Origin]int{}
	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		origins[r.origin]++
		if first == nil {
			first = r.metrics
		} else if !metricsBitwiseEqual(first, r.metrics) {
			t.Error("waiters saw different metrics for one key")
		}
	}
	st := sched.Stats()
	if st.Computed != 1 {
		t.Errorf("cell simulated %d times, want exactly once", st.Computed)
	}
	if st.Deduped != 3 {
		t.Errorf("deduped counter: %d, want 3 (origins: %v)", st.Deduped, origins)
	}
	if origins[OriginComputed] != 1 || origins[OriginDeduped] != 3 {
		t.Errorf("origins: %v", origins)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight after completion: %d", st.Inflight)
	}
}

// TestSchedulerCancellation pins per-waiter cancellation: a canceled
// caller detaches with its context's error, and once the last waiter
// is gone the flight is retired.
func TestSchedulerCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovNone, DurationS: 60, Seed: 9,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		_, _, runErr = runCell(ctx, sched, cell, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sched.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	wg.Wait()
	if runErr == nil {
		t.Fatal("canceled RunCells returned no error")
	}
	deadline = time.Now().Add(10 * time.Second)
	for sched.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight not retired after last waiter left")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sched.Stats().Computed; got != 0 {
		t.Errorf("canceled flight counted as computed: %d", got)
	}
}

// TestJoinAfterPublishServesMemoryTier pins the window between a
// caller's cache miss and its join: when another caller's flight
// publishes and retires inside it, the join must hand back the
// published metrics instead of electing a leader for a second
// simulation of the same key.
func TestJoinAfterPublishServesMemoryTier(t *testing.T) {
	sched, cache := newTestScheduler(t)
	const key = 42
	if _, tier := cache.Get(key); tier != TierMiss {
		t.Fatal("fresh cache hit")
	}
	fl, leader, _ := sched.join(key)
	if !leader {
		t.Fatal("first joiner not elected leader")
	}
	sched.publish(key, fl, map[string]float64{"x": 1}, nil)

	late, leader, m := sched.join(key)
	if late != nil || leader || m["x"] != 1 {
		t.Fatalf("join after publish: flight %v, leader %v, metrics %v; want the published metrics", late, leader, m)
	}
	if st := sched.Stats(); st.Computed != 1 || st.Inflight != 0 {
		t.Errorf("scheduler stats: %+v", st)
	}
}
