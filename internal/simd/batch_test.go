package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/pkg/mobisim"
)

// batchMatrix mixes platforms (two thermal topologies), governors
// (limit-aware and not) and limits, so one job exercises topology
// grouping, warm prefix subgrouping and cold units at once.
func batchMatrix() mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3, mobisim.PlatformNexus6P},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware, mobisim.GovNone},
		LimitsC:    []float64{58, 70},
		Replicates: 1,
		DurationS:  2,
		BaseSeed:   3,
	}
}

// TestServerBatchedByteIdentityMatrix is the executor's invariant
// matrix: at every lane width the daemon's result body is
// byte-identical to an in-process RunSweep — cold, with a half-warm
// cache (hit/miss interleaving), and fully cached.
func TestServerBatchedByteIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := batchMatrix()
	want := coldSweepJSON(t, m)
	cells := m.ExpandedSize()

	// Half the matrix, submitted first in the interleaving phase below.
	half := m
	half.LimitsC = []float64{58}

	for _, width := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1, BatchWidth: width})
			srv.Start()
			defer srv.Shutdown(context.Background())

			st, resp := postJob(t, ts, matrixBody(t, m, ""))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			done := waitState(t, ts, st.ID, JobDone)
			if done.Computed != cells || done.CacheHits != 0 {
				t.Errorf("cold job counters: %+v", done)
			}
			if body := getResult(t, ts, st.ID); !bytes.Equal(body, want) {
				t.Errorf("batched result differs from RunSweep oracle:\nwant:\n%s\ngot:\n%s", want, body)
			}
			sst := srv.sched.Stats()
			if sst.Batched == 0 {
				t.Error("the executor ran no lockstep units")
			}
			if sst.BatchLanes != uint64(cells) {
				t.Errorf("batch lanes: %d, want every one of %d cold cells", sst.BatchLanes, cells)
			}

			// Fully cached resubmission: nothing simulated, same bytes.
			st2, _ := postJob(t, ts, matrixBody(t, m, ""))
			done2 := waitState(t, ts, st2.ID, JobDone)
			if done2.CacheHits != cells || done2.Computed != 0 {
				t.Errorf("warm job counters: %+v", done2)
			}
			if body := getResult(t, ts, st2.ID); !bytes.Equal(body, want) {
				t.Error("cache-hit body differs from cold body")
			}

			// Hit/miss interleaving on a fresh daemon: pre-warm half the
			// matrix, then the full job mixes cache hits with batched misses
			// cell-by-cell — bytes must not care.
			srvI, tsI := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1, BatchWidth: width})
			srvI.Start()
			defer srvI.Shutdown(context.Background())
			sth, _ := postJob(t, tsI, matrixBody(t, half, ""))
			waitState(t, tsI, sth.ID, JobDone)
			stf, _ := postJob(t, tsI, matrixBody(t, m, ""))
			donef := waitState(t, tsI, stf.ID, JobDone)
			if donef.CacheHits != half.ExpandedSize() || donef.Computed != cells-half.ExpandedSize() {
				t.Errorf("interleaved job counters: %+v", donef)
			}
			if body := getResult(t, tsI, stf.ID); !bytes.Equal(body, want) {
				t.Error("interleaved hit/miss result differs from oracle")
			}
		})
	}
}

// sseCellPayloads fetches a completed job's event replay and returns
// its cell-event payloads indexed by cell. Sample events are
// best-effort, so equivalence is over the cell events alone.
func sseCellPayloads(t *testing.T, ts *httptest.Server, id string, cells int) []cellEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]cellEvent, cells)
	seen := 0
	var event string
	for _, line := range strings.Split(string(data), "\n") {
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			event = after
			continue
		}
		after, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "cell" {
			continue
		}
		var ev cellEvent
		if err := json.Unmarshal([]byte(after), &ev); err != nil {
			t.Fatalf("cell event payload: %v\n%s", err, after)
		}
		if ev.Index < 0 || ev.Index >= cells {
			t.Fatalf("cell event index %d out of range", ev.Index)
		}
		out[ev.Index] = ev
		seen++
	}
	if seen != cells {
		t.Fatalf("event replay carried %d cell events, want %d\n%s", seen, cells, data)
	}
	return out
}

// TestServerBatchedSSEEquivalence pins the event-feed contract: modulo
// best-effort sample drops, the cell event stream of a width-4 daemon
// is equivalent to a width-1 daemon's — same keys, origins and metrics,
// one event per cell — and lockstep lanes do stream samples.
func TestServerBatchedSSEEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := batchMatrix()
	cells := m.ExpandedSize()

	run := func(width int) (*Server, *httptest.Server, string) {
		srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1, BatchWidth: width})
		srv.Start()
		st, _ := postJob(t, ts, matrixBody(t, m, `, "stream_samples": true`))
		waitState(t, ts, st.ID, JobDone)
		return srv, ts, st.ID
	}
	narrowSrv, narrowTS, narrowID := run(1)
	defer narrowSrv.Shutdown(context.Background())
	batchSrv, batchTS, batchID := run(4)
	defer batchSrv.Shutdown(context.Background())
	if batchSrv.sched.Stats().Batched == 0 {
		t.Fatal("batched server ran no units")
	}

	narrow := sseCellPayloads(t, narrowTS, narrowID, cells)
	batched := sseCellPayloads(t, batchTS, batchID, cells)
	for i := range narrow {
		nj, _ := json.Marshal(narrow[i])
		bj, _ := json.Marshal(batched[i])
		if !bytes.Equal(nj, bj) {
			t.Errorf("cell %d event differs:\nwidth 1: %s\nwidth 4: %s", i, nj, bj)
		}
	}

	// Batched lanes attach per-lane observers feeding the same sample
	// taps the SSE layer publishes from (sample frames themselves are
	// live-only and droppable, so the tap is the deterministic seam).
	// Non-limit-aware lanes always simulate their full horizon, so at
	// least those must deliver samples.
	sched, _ := newTestScheduler(t)
	expanded, err := mobisim.ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	tapped := make([]int, len(expanded))
	_, _, err = sched.RunCells(context.Background(), expanded, 4, 2, nil, func(i int) SampleFunc {
		return func(Sample) { tapped[i]++ }
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range expanded {
		if expanded[i].Spec.Governor == mobisim.GovNone && tapped[i] == 0 {
			t.Errorf("batched lane %d (%s) delivered no samples through its tap", i, expanded[i].Spec.Workload)
		}
	}
}

// TestServerBatchedCrashRecovery is the chaos variant: kill the batched
// daemon mid-job — some lanes published, some not — restart on the same
// directory with batching still on, and the recovered job's result is
// byte-identical to the cold oracle, pre-crash lanes served from cache.
func TestServerBatchedCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := chaosMatrix()
	want := coldSweepJSON(t, m)
	dir := t.TempDir()

	// Lane publishes funnel through cache writes one at a time, so write
	// latency staggers completions and widens the kill window.
	inj := faultfs.NewInjector(nil).Add(faultfs.Rule{
		Op: faultfs.OpCreate, PathContains: "cellkey",
		Latency: 25 * time.Millisecond, LatencyOnly: true,
	})
	srv1, ts1 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1, CellWorkers: 1, BatchWidth: 4, FS: inj})
	srv1.Start()

	st, resp := postJob(t, ts1, matrixBody(t, m, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur := getStatus(t, ts1, st.ID)
		if cur.State == JobDone {
			t.Fatal("job finished before the kill; widen the injected latency")
		}
		if cur.Completed >= 2 && cur.Completed < cur.Cells {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the kill window (status %+v)", cur)
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Kill()
	ts1.Close()

	srv2, ts2 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1, BatchWidth: 4})
	if got := srv2.Recovered(); got != 1 {
		t.Fatalf("recovered jobs: %d, want 1", got)
	}
	srv2.Start()
	defer srv2.Shutdown(context.Background())

	done := waitState(t, ts2, st.ID, JobDone)
	if done.CacheHits == 0 {
		t.Error("recovered run served no cells from cache; pre-crash lanes were lost")
	}
	if done.CacheHits+done.Computed+done.Deduped != done.Cells {
		t.Errorf("recovered run cell accounting broken: %+v", done)
	}
	if body := getResult(t, ts2, st.ID); !bytes.Equal(body, want) {
		t.Errorf("recovered batched result differs from cold oracle:\nwant:\n%s\ngot:\n%s", want, body)
	}
}

// TestNegativeBatchWidthRejected pins the one width rule at every entry
// point that takes a width: 0 is the planner's choice, and a negative
// width fails with the same error everywhere instead of picking one.
func TestNegativeBatchWidthRejected(t *testing.T) {
	ctx := context.Background()
	m := batchMatrix()
	cells, err := mobisim.ExpandCells(m)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]mobisim.Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	spec := mobisim.OptimizeSpec{
		Name:      "negative-width",
		Scenario:  specs[0],
		Objective: mobisim.Objective{Metric: mobisim.MetricPeakC, Goal: mobisim.GoalMinimize},
		Mutations: []mobisim.Mutation{{Param: mobisim.ParamLimitC, Min: 55, Max: 65, Step: 5}},
	}
	const width = -1
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunSweep", func() error {
			_, err := mobisim.RunSweep(ctx, m, mobisim.SweepConfig{BatchWidth: width})
			return err
		}},
		{"RunScenarios", func() error {
			_, err := mobisim.RunScenarios(ctx, specs, mobisim.SweepConfig{BatchWidth: width})
			return err
		}},
		{"RunSweepCached", func() error {
			cache, err := NewCache("", 0)
			if err != nil {
				return err
			}
			_, _, err = RunSweepCached(ctx, m, mobisim.SweepConfig{BatchWidth: width}, cache)
			return err
		}},
		{"Optimize", func() error {
			_, err := mobisim.Optimize(ctx, spec, mobisim.OptimizeConfig{BatchWidth: width})
			return err
		}},
		{"NewServer", func() error {
			_, err := NewServer(Config{BatchWidth: width})
			return err
		}},
	} {
		err := tc.run()
		if !errors.Is(err, mobisim.ErrNegativeBatchWidth) || err.Error() != mobisim.ErrNegativeBatchWidth.Error() {
			t.Errorf("%s at width %d: got %v, want %q", tc.name, width, err, mobisim.ErrNegativeBatchWidth)
		}
	}
}

// TestRunCellsPlansForItsWorkers pins the width-0 shape through the
// daemon's executor on two CPUs: RunCells plans for the workers it
// runs units on, and without a fixed count for its share of GOMAXPROCS
// while other RunCells calls are in progress. The matrix needs two
// lanes (two warm prefix groups of four limits each), so one worker
// takes both sentinels in one unit and two workers take one each.
func TestRunCellsPlansForItsWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()
	cellsOf := func(seed int64, limits ...float64) []mobisim.Cell {
		cells, err := mobisim.ExpandCells(mobisim.Matrix{
			Platforms:  []string{mobisim.PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{mobisim.GovAppAware},
			LimitsC:    limits,
			Replicates: 2,
			DurationS:  1,
			BaseSeed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	// units runs the matrix on s and returns how many units it planned.
	units := func(s *Scheduler, workers int) uint64 {
		before := s.Stats().Batched
		if _, _, err := s.RunCells(ctx, cellsOf(1, 52, 58, 64, 70), 0, workers, nil, nil); err != nil {
			t.Fatal(err)
		}
		return s.Stats().Batched - before
	}
	newSched := func() *Scheduler {
		cache, err := NewCache("", 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewScheduler(ctx, cache)
	}
	for _, tc := range []struct{ workers, want int }{{1, 1}, {2, 2}, {0, 2}} {
		if got := units(newSched(), tc.workers); got != uint64(tc.want) {
			t.Errorf("workers %d: %d units, want %d", tc.workers, got, tc.want)
		}
	}

	// A second call in progress halves this call's share of the CPUs.
	s := newSched()
	other := cellsOf(9, 60)
	if _, _, err := s.RunCells(ctx, other, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		// The primed cells are cache hits: onCell holds the call open.
		_, _, err := s.RunCells(ctx, other, 0, 0, func(i int, _ Origin, _ map[string]float64) {
			if i == 0 {
				close(entered)
				<-release
			}
		}, nil)
		done <- err
	}()
	<-entered
	got := units(s, 0)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("workers 0 beside another call: %d units, want 1", got)
	}
}
