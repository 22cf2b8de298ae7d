package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// TaskPool executes opaque work items on a fixed worker set: tasks
// write their results into caller-owned slots (each task owns disjoint
// output positions, so results are independent of worker interleaving),
// the first task error cancels the rest, and context cancellation stops
// feeding promptly. It is the one worker substrate of the repository:
// mobisim.RunScenarios runs one task per planned batch unit for every
// sweep, search and limit study.
type TaskPool struct {
	// Workers is the concurrency; <= 0 uses GOMAXPROCS.
	Workers int
}

// Run executes every task and returns the first task error, if any.
// Tasks must be safe to run concurrently with each other.
func (p *TaskPool) Run(ctx context.Context, tasks []func(ctx context.Context) error) error {
	if len(tasks) == 0 {
		return nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				if ctx.Err() != nil {
					return
				}
				if err := tasks[ti](ctx); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for ti := range tasks {
		select {
		case jobs <- ti:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sweep: canceled: %w", err)
	}
	return nil
}
