package simd

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/mobisim"
)

// TestSentinelTailCancellation pins cancellation latency in the
// post-event tail of a warm unit: once every sentinel has taken its
// final checkpoint, the rest of the horizon must still poll ctx every
// mobisim.CtxCheckSteps steps, the cadence every unit runs at, so
// DELETE-cancel, last-waiter detach and hard shutdown take effect
// within one chunk instead of at the end of the cell.
func TestSentinelTailCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const cancelAtS = 60.0
	base := mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovAppAware, DurationS: 120, Seed: 1,
	}
	low, high := base, base
	low.LimitC, high.LimitC = 52, 58

	// The limit-52 sentinel must act before the cancel point, or the
	// test would exercise the checkpointing loop instead of the tail.
	probe, err := mobisim.New(low, mobisim.WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	stepS := probe.Sim().StepS()
	if err := probe.RunSteps(int(math.Round(cancelAtS / stepS))); err != nil {
		t.Fatal(err)
	}
	if probe.AppAware().EventCount() == 0 {
		t.Fatal("governor never acted before the cancel point; the test would not exercise the post-event tail")
	}

	specs := []mobisim.Scenario{low, high}
	units, err := mobisim.PlanBatchUnits(specs, mobisim.DefaultBatchWidth, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || !units[0].Warm {
		t.Fatalf("plan: %+v, want one warm unit", units)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastSeenS float64
	sentinel := observerFunc(func(smp *mobisim.Sample) error {
		lastSeenS = smp.TimeS
		if smp.TimeS >= cancelAtS {
			cancel()
		}
		return nil
	})
	var runner mobisim.BatchRunner
	_, err = runner.RunUnit(ctx, specs, units[0], mobisim.DefaultBatchWidth, mobisim.BatchRunOptions{
		Observer: func(i int) mobisim.Observer {
			if i == 0 {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled warm unit returned %v, want context.Canceled", err)
	}
	// The cancel fires mid-chunk; the unit finishes that chunk, then the
	// loop-top poll returns. Overshoot past the cancel point is therefore
	// bounded by one chunk of simulated time (plus one trace period of
	// observer latency, absorbed by the second chunk of slack).
	chunkS := float64(mobisim.CtxCheckSteps) * stepS
	if maxS := cancelAtS + 2*chunkS; lastSeenS > maxS {
		t.Fatalf("sentinel ran to t=%.1fs after cancel at t=%.0fs, want <= %.1fs (one CtxCheckSteps chunk)",
			lastSeenS, cancelAtS, maxS)
	}
}

// TestAwaitFlightPrefersCompletion pins the finish-line determinism
// fix: with the flight done AND the caller canceled, awaitFlight must
// always hand back the completed result, never the cancellation — the
// naive two-case select discarded finished work pseudo-randomly.
func TestAwaitFlightPrefersCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		fl := &flight{done: make(chan struct{})}
		close(fl.done)
		if err := awaitFlight(ctx, fl); err != nil {
			t.Fatalf("iteration %d: completed flight reported %v", i, err)
		}
	}
	fl := &flight{done: make(chan struct{})}
	if err := awaitFlight(ctx, fl); !errors.Is(err, context.Canceled) {
		t.Fatalf("unfinished flight under canceled ctx returned %v", err)
	}
}

// TestDedupedNotCountedOnDetach pins the counter semantics: a follower
// that cancels before the flight completes was never served a deduped
// result, so it must not increment Deduped.
func TestDedupedNotCountedOnDetach(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sched, _ := newTestScheduler(t)
	cell := mustCell(t, mobisim.Scenario{
		Platform: mobisim.PlatformOdroidXU3, Workload: "3dmark+bml",
		Governor: mobisim.GovNone, DurationS: 120, Seed: 5,
	})
	refs := func() int {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		for _, fl := range sched.flights {
			fl.mu.Lock()
			r := fl.refs
			fl.mu.Unlock()
			return r
		}
		return 0
	}

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = runCell(lctx, sched, cell, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for refs() < 1 {
		if sched.Stats().Computed > 0 {
			t.Fatal("flight completed before the follower joined; raise DurationS")
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}

	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	var followErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, followErr = runCell(fctx, sched, cell, nil)
	}()
	for refs() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(100 * time.Microsecond)
	}

	fcancel()
	// Detach the leader too so the flight dies instead of finishing the
	// 120s horizon; neither waiter was served, so Deduped must stay 0.
	lcancel()
	wg.Wait()
	if !errors.Is(followErr, context.Canceled) {
		t.Fatalf("canceled follower returned %v", followErr)
	}
	for sched.Stats().Inflight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight not retired")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sched.Stats().Deduped; got != 0 {
		t.Errorf("detached follower counted as deduped: %d, want 0", got)
	}
}

// TestCanceledJobsReleaseGoroutines is the resource bound of the
// executor: every lockstep unit owns a runner goroutine and a watcher
// goroutine, including units still queued on the per-job semaphore.
// Several multi-unit jobs canceled mid-run, followed by Shutdown, must
// leave no goroutine behind.
func TestCanceledJobsReleaseGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	baseline := runtime.NumGoroutine()
	srv, err := NewServer(Config{JobWorkers: 2, CellWorkers: 1, BatchWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	// Four limit-agnostic replicates of a long horizon: four cold units
	// per job at width 1, one running and three queued on the semaphore.
	var ids []string
	for k := 0; k < 3; k++ {
		m := mobisim.Matrix{
			Platforms:  []string{mobisim.PlatformOdroidXU3},
			Workloads:  []string{"3dmark+bml"},
			Governors:  []string{mobisim.GovNone},
			Replicates: 4,
			DurationS:  600,
			BaseSeed:   int64(100 + k),
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(matrixBody(t, m, ""))))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %s", k, rec.Code, rec.Body)
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.sched.Stats().Inflight < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("two running jobs never had all their units in flight: %+v", srv.sched.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range ids {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("cancel %s: HTTP %d", id, rec.Code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := srv.sched.Stats(); st.Computed != 0 {
		t.Errorf("canceled units published results: %+v", st)
	}

	deadline = time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
