package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestTaskPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 40)
		tasks := make([]func(ctx context.Context) error, len(out))
		for i := range tasks {
			i := i
			tasks[i] = func(ctx context.Context) error {
				out[i] = i * i
				return nil
			}
		}
		pool := &TaskPool{Workers: workers}
		if err := pool.Run(context.Background(), tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestTaskPoolEmpty(t *testing.T) {
	pool := &TaskPool{}
	if err := pool.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestTaskPoolFirstError(t *testing.T) {
	boom := fmt.Errorf("boom")
	var ran atomic.Int32
	tasks := make([]func(ctx context.Context) error, 64)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			// Tasks after the failing one hold their worker until the
			// failure cancels the run, so a worker that is slow to
			// report the error cannot let the other drain the feed.
			if i > 3 {
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Second):
				}
			}
			return nil
		}
	}
	pool := &TaskPool{Workers: 2}
	err := pool.Run(context.Background(), tasks)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v, want boom", err)
	}
	if n := ran.Load(); n == 64 {
		t.Fatal("error did not stop the feed")
	}
}

func TestTaskPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	pool := &TaskPool{Workers: 2}
	err := pool.Run(ctx, []func(ctx context.Context) error{
		func(ctx context.Context) error { ran = true; return nil },
	})
	if err == nil {
		t.Fatal("canceled context not reported")
	}
	_ = ran // a task may or may not start; only the error contract is pinned
}

// fakeItems returns n work-item indices for pool tests.
func fakeItems(n int) []int {
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	return items
}

// fakeRun is a deterministic pure function of the item, standing in
// for a simulation seeded per replicate.
func fakeRun(_ context.Context, i int) (map[string]float64, error) {
	return map[string]float64{
		"metric_a": float64(50+i) * float64(DeriveSeed(7, i%3)%1000),
		"metric_b": float64(i),
	}, nil
}

// runItems runs one task per item on the pool, each writing its own
// result slot, the way every executor in the repository uses it.
func runItems(ctx context.Context, pool *TaskPool, items []int, run func(context.Context, int) (map[string]float64, error)) ([]map[string]float64, error) {
	results := make([]map[string]float64, len(items))
	tasks := make([]func(ctx context.Context) error, len(items))
	for i := range items {
		i := i
		tasks[i] = func(ctx context.Context) error {
			m, err := run(ctx, items[i])
			if err != nil {
				return err
			}
			results[i] = m
			return nil
		}
	}
	if err := pool.Run(ctx, tasks); err != nil {
		return nil, err
	}
	return results, nil
}

func TestPoolParityAcrossWorkerCounts(t *testing.T) {
	items := fakeItems(15)
	serial, err := runItems(context.Background(), &TaskPool{Workers: 1}, items, fakeRun)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			got, err := runItems(context.Background(), &TaskPool{Workers: workers}, items, fakeRun)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Fatalf("results differ from serial run:\nserial: %+v\ngot:    %+v", serial, got)
			}
			// Byte-identical serialized output, the pool's core contract.
			aj, err := json.Marshal(serial)
			if err != nil {
				t.Fatal(err)
			}
			bj, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(aj) != string(bj) {
				t.Fatalf("results not byte-identical:\n%s\nvs\n%s", aj, bj)
			}
		})
	}
}

func TestPoolRunsConcurrently(t *testing.T) {
	// Sleep-bound tasks parallelize even on a single CPU: 8 tasks of
	// 50 ms each finish in ~2 rounds on 4 workers, far under the 400 ms
	// a serial pass needs.
	sleep := func(ctx context.Context, i int) (map[string]float64, error) {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return map[string]float64{"m": 1}, nil
	}
	start := time.Now()
	if _, err := runItems(context.Background(), &TaskPool{Workers: 4}, fakeItems(8), sleep); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Errorf("8×50ms tasks on 4 workers took %v; pool is not concurrent", elapsed)
	}
}

func TestPoolErrorPropagation(t *testing.T) {
	items := fakeItems(8)
	sentinel := errors.New("scenario exploded")
	var started atomic.Int32
	run := func(ctx context.Context, i int) (map[string]float64, error) {
		started.Add(1)
		if i == 2 {
			return nil, sentinel
		}
		// Successes are slow enough for the cancellation to land before
		// the queue tail is fed.
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
		}
		return map[string]float64{"m": 1}, nil
	}
	_, err := runItems(context.Background(), &TaskPool{Workers: 2}, items, run)
	if !errors.Is(err, sentinel) {
		t.Fatalf("want the task error, got %v", err)
	}
	// The pool stops feeding after the failure: with 2 workers and an
	// immediate error on the third task, the tail never starts.
	if n := started.Load(); int(n) == len(items) {
		t.Errorf("all %d tasks started despite early failure", n)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	items := fakeItems(8)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	run := func(ctx context.Context, i int) (map[string]float64, error) {
		if started.Add(1) == 2 {
			cancel() // cancel mid-run, from inside a task
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return map[string]float64{"m": 1}, nil
		}
	}
	done := make(chan struct{})
	var err error
	go func() {
		_, err = runItems(ctx, &TaskPool{Workers: 2}, items, run)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pool did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); int(n) == len(items) {
		t.Errorf("all %d tasks started despite cancellation", n)
	}
}

func TestPoolEdgeCases(t *testing.T) {
	t.Run("empty scenarios", func(t *testing.T) {
		res, err := runItems(context.Background(), &TaskPool{Workers: 4}, nil, fakeRun)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Fatalf("want no results, got %v", res)
		}
	})
	t.Run("more workers than scenarios", func(t *testing.T) {
		res, err := runItems(context.Background(), &TaskPool{Workers: 64}, fakeItems(2), fakeRun)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 || res[1] == nil {
			t.Fatalf("want 2 results, got %+v", res)
		}
	})
	t.Run("pre-canceled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := runItems(ctx, &TaskPool{Workers: 2}, fakeItems(4), fakeRun); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
}
