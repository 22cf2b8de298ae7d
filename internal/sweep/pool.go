package sweep

import (
	"context"
	"fmt"
)

// Result is one completed scenario with its extracted metrics.
type Result struct {
	// Scenario is the point that was run.
	Scenario Scenario
	// Metrics maps metric names to scalar values.
	Metrics map[string]float64
}

// RunFunc turns one scenario into a metric set. Implementations must be
// safe for concurrent use (each call builds its own independent
// simulation) and should return promptly once ctx is canceled.
type RunFunc func(ctx context.Context, sc Scenario) (map[string]float64, error)

// Pool executes scenarios across a fixed set of workers.
type Pool struct {
	// Workers is the concurrency; <= 0 uses GOMAXPROCS.
	Workers int
	// RunFunc executes one scenario (required).
	RunFunc RunFunc
	// OnResult, when set, is invoked once per completed scenario as it
	// finishes — the streaming hook job services use for live progress.
	// Calls come from worker goroutines in completion order (not
	// scenario order), so implementations must be safe for concurrent
	// use; the returned slice is still in scenario order regardless.
	OnResult func(Result)
}

// Run executes every scenario and returns results in scenario order,
// independent of worker interleaving. It stops early on the first
// scenario error or on context cancellation, returning the first error
// encountered; queued scenarios are then never started, and in-flight
// ones see a canceled context.
func (p *Pool) Run(ctx context.Context, scenarios []Scenario) ([]Result, error) {
	if p.RunFunc == nil {
		return nil, fmt.Errorf("sweep: pool needs a RunFunc")
	}
	if len(scenarios) == 0 {
		return nil, nil
	}
	results := make([]Result, len(scenarios))
	tasks := make([]func(ctx context.Context) error, len(scenarios))
	for i := range scenarios {
		i := i
		tasks[i] = func(ctx context.Context) error {
			sc := scenarios[i]
			m, err := p.RunFunc(ctx, sc)
			if err != nil {
				return fmt.Errorf("sweep: scenario %d (%s, seed %d): %w", sc.Index, sc.Key(), sc.Seed, err)
			}
			results[i] = Result{Scenario: sc, Metrics: m}
			if p.OnResult != nil {
				p.OnResult(results[i])
			}
			return nil
		}
	}
	pool := &TaskPool{Workers: p.Workers}
	if err := pool.Run(ctx, tasks); err != nil {
		return nil, err
	}
	return results, nil
}
