package mobisim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for runTasks, the worker pool RunScenarios runs every unit on.

// taskSlots returns n tasks that each write a deterministic function of
// their index into their own slot of out, the way RunScenarios uses the
// pool.
func taskSlots(n int) (out []int64, tasks []func(ctx context.Context) error) {
	out = make([]int64, n)
	tasks = make([]func(ctx context.Context) error, n)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) error {
			out[i] = deriveSeed(7, i)
			return nil
		}
	}
	return out, tasks
}

// TestTaskPoolRunsEveryTask: every task runs exactly once, whatever the
// worker count (0 for GOMAXPROCS included).
func TestTaskPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		runs := make([]atomic.Int32, 40)
		tasks := make([]func(ctx context.Context) error, len(runs))
		for i := range tasks {
			i := i
			tasks[i] = func(ctx context.Context) error {
				runs[i].Add(1)
				return nil
			}
		}
		if err := runTasks(context.Background(), workers, tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times, want 1", workers, i, n)
			}
		}
	}
}

// TestTaskPoolParityAcrossWorkerCounts: every worker count gives the
// serial pass's results.
func TestTaskPoolParityAcrossWorkerCounts(t *testing.T) {
	serial, tasks := taskSlots(15)
	if err := runTasks(context.Background(), 1, tasks); err != nil {
		t.Fatal(err)
	}
	for i, v := range serial {
		if v != deriveSeed(7, i) {
			t.Fatalf("serial slot %d = %d, want %d", i, v, deriveSeed(7, i))
		}
	}
	for _, workers := range []int{0, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			got, tasks := taskSlots(len(serial))
			if err := runTasks(context.Background(), workers, tasks); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("results differ from the serial pass:\nserial: %v\ngot:    %v", serial, got)
			}
		})
	}
}

func TestTaskPoolEdgeCases(t *testing.T) {
	t.Run("nil tasks", func(t *testing.T) {
		if err := runTasks(context.Background(), 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("empty tasks", func(t *testing.T) {
		if err := runTasks(context.Background(), 4, []func(ctx context.Context) error{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("more workers than tasks", func(t *testing.T) {
		got, tasks := taskSlots(2)
		if err := runTasks(context.Background(), 64, tasks); err != nil {
			t.Fatal(err)
		}
		if want := []int64{deriveSeed(7, 0), deriveSeed(7, 1)}; !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	})
}

func TestTaskPoolRunsConcurrently(t *testing.T) {
	// Sleep-bound tasks parallelize even on a single CPU: 8 tasks of
	// 50 ms each finish in ~2 rounds on 4 workers, far under the 400 ms
	// a serial pass needs.
	tasks := make([]func(ctx context.Context) error, 8)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			select {
			case <-time.After(50 * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	start := time.Now()
	if err := runTasks(context.Background(), 4, tasks); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Errorf("8×50ms tasks on 4 workers took %v; pool is not concurrent", elapsed)
	}
}

// TestTaskPoolFirstError: the first task error is returned as is, and
// the failure stops the feed, both when the tasks after the failing one
// wait for the cancellation and when the successes are merely slow.
func TestTaskPoolFirstError(t *testing.T) {
	cases := []struct {
		name   string
		n, bad int
		// wait is what a task other than the failing one does before it
		// returns nil.
		wait func(ctx context.Context, i int)
	}{
		{"blocked tail", 64, 3, func(ctx context.Context, i int) {
			// Tasks after the failing one hold their worker until the
			// failure cancels the run, so a worker that is slow to
			// report the error cannot let the other drain the feed.
			if i > 3 {
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Second):
				}
			}
		}},
		{"slow successes", 8, 2, func(ctx context.Context, i int) {
			// Successes are slow enough for the cancellation to land
			// before the queue tail is fed.
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			boom := errors.New("boom")
			var ran atomic.Int32
			tasks := make([]func(ctx context.Context) error, tc.n)
			for i := range tasks {
				i := i
				tasks[i] = func(ctx context.Context) error {
					ran.Add(1)
					if i == tc.bad {
						return boom
					}
					tc.wait(ctx, i)
					return nil
				}
			}
			if err := runTasks(context.Background(), 2, tasks); !errors.Is(err, boom) {
				t.Fatalf("got %v, want boom", err)
			}
			if n := ran.Load(); int(n) == tc.n {
				t.Fatalf("all %d tasks started despite early failure", n)
			}
		})
	}
}

// TestTaskPoolCancellation: a context canceled before or during the
// run returns context.Canceled promptly, and the feed stops.
func TestTaskPoolCancellation(t *testing.T) {
	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, tasks := taskSlots(4)
		if err := runTasks(ctx, 2, tasks); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
	t.Run("mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started atomic.Int32
		tasks := make([]func(ctx context.Context) error, 8)
		for i := range tasks {
			tasks[i] = func(ctx context.Context) error {
				if started.Add(1) == 2 {
					cancel() // cancel mid-run, from inside a task
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(5 * time.Second):
					return nil
				}
			}
		}
		done := make(chan error, 1)
		go func() { done <- runTasks(ctx, 2, tasks) }()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pool did not return after cancellation")
		}
		if n := started.Load(); int(n) == len(tasks) {
			t.Errorf("all %d tasks started despite cancellation", n)
		}
	})
}
