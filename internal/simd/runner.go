package simd

import (
	"context"

	"repro/pkg/mobisim"
)

// RunStats summarizes one run's cells by origin.
type RunStats struct {
	// Total is the number of cells in the run.
	Total int `json:"total"`
	// ByOrigin counts cells per Origin.
	ByOrigin map[Origin]int `json:"by_origin"`
}

// CacheHits counts cells served from either cache tier.
func (s RunStats) CacheHits() int {
	return s.ByOrigin[OriginMemCache] + s.ByOrigin[OriginDiskCache]
}

// Computed counts cells that were actually simulated.
func (s RunStats) Computed() int { return s.ByOrigin[OriginComputed] }

// Deduped counts cells that attached to another caller's in-flight
// computation.
func (s RunStats) Deduped() int { return s.ByOrigin[OriginDeduped] }

// RunSweepCached is the cache-aware counterpart of mobisim.RunSweep:
// it expands the matrix into content-addressed cells, serves each from
// the cache where possible (populating it otherwise), runs the misses
// through Scheduler.RunCells — the daemon's executor — at
// cfg.BatchWidth lanes (0 lets the planner choose; negative is
// mobisim.ErrNegativeBatchWidth) on cfg.Workers workers, and folds
// the metric sets through the same aggregation tail RunSweep uses, so
// its output is byte-identical to RunSweep for every matrix, hit or
// miss. Misses plan prefix warm units, like every executor. It backs
// `sweep -cache-dir`, sharing
// the on-disk store with the daemon.
func RunSweepCached(ctx context.Context, m mobisim.Matrix, cfg mobisim.SweepConfig, cache *Cache) (*mobisim.SweepOutput, RunStats, error) {
	cells, err := mobisim.ExpandCells(m)
	if err != nil {
		return nil, RunStats{}, err
	}
	sched := NewScheduler(ctx, cache)
	metrics, stats, err := sched.RunCells(ctx, cells, cfg.BatchWidth, cfg.Workers, nil, nil)
	if err != nil {
		return nil, stats, err
	}
	out, err := mobisim.AggregateCells(cells, metrics, cfg.IncludeRaw)
	return out, stats, err
}
