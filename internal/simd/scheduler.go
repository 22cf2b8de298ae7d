package simd

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/thermal"
	"repro/pkg/mobisim"
)

// Origin says how a cell's metrics were obtained.
type Origin string

const (
	// OriginComputed is a simulation run by this caller's job.
	OriginComputed Origin = "computed"
	// OriginMemCache is an in-memory cache hit.
	OriginMemCache Origin = "mem-cache"
	// OriginDiskCache is an on-disk cache hit.
	OriginDiskCache Origin = "disk-cache"
	// OriginDeduped means the caller attached to another caller's
	// in-flight computation of the same CellKey.
	OriginDeduped Origin = "deduped"
)

// Sample is one observer observation of a running cell, the streaming
// payload of the job SSE feed. Temperatures are °C.
type Sample struct {
	TimeS    float64 `json:"time_s"`
	MaxTempC float64 `json:"max_temp_c"`
	SensorC  float64 `json:"sensor_c"`
	TotalW   float64 `json:"total_w"`
}

// SampleFunc receives a cell's observer samples after the cell
// completes. Cache hits deliver no samples (nothing was simulated),
// cells forked from a warm unit's checkpoint deliver only post-fork
// samples, and cells that reuse their sentinel's run deliver none.
type SampleFunc func(Sample)

// maxFlightSamples bounds the per-flight sample buffer; a pathological
// trace-period configuration degrades to a truncated sample stream,
// never to unbounded memory.
const maxFlightSamples = 1 << 16

// SchedulerStats is an atomic snapshot of the scheduler counters.
// Computed counts every simulated cell; Deduped the waiters actually
// served by another caller's flight. Batched counts the lockstep units
// run and BatchLanes the cells that rode them as lanes, so
// BatchLanes/Batched is the realized mean lane width.
type SchedulerStats struct {
	Computed   uint64 `json:"computed"`
	Deduped    uint64 `json:"deduped"`
	Batched    uint64 `json:"batched"`
	BatchLanes uint64 `json:"batch_lanes"`
	Inflight   int    `json:"inflight"`
}

// Scheduler runs content-addressed cells at most once at a time per
// CellKey: concurrent RunCells calls sharing a key — from any job —
// share one in-flight computation (singleflight), and completed keys
// are served from the cache. Safe for concurrent use.
type Scheduler struct {
	base  context.Context
	cache *Cache

	mu      sync.Mutex
	flights map[uint64]*flight

	computed   atomic.Uint64
	deduped    atomic.Uint64
	batched    atomic.Uint64
	batchLanes atomic.Uint64
	// running counts RunCells calls in progress; they share the CPUs.
	running atomic.Int64

	// batch is the shared lockstep runner behind RunCells; its
	// engine-shell free list persists across jobs.
	batch mobisim.BatchRunner
}

// flight is one in-flight cell computation plus its waiters.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu   sync.Mutex
	refs int

	// Written only by the unit goroutine before close(done); read by
	// waiters after <-done (the close is the happens-before edge).
	metrics map[string]float64
	samples []Sample
	err     error
}

// NewScheduler builds a scheduler over the cache. base (nil means
// Background) parents every flight's compute context: canceling it
// aborts all in-flight cells, the server's hard-shutdown path.
func NewScheduler(base context.Context, cache *Cache) *Scheduler {
	if base == nil {
		base = context.Background()
	}
	return &Scheduler{base: base, cache: cache, flights: make(map[uint64]*flight)}
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	inflight := len(s.flights)
	s.mu.Unlock()
	return SchedulerStats{
		Computed:   s.computed.Load(),
		Deduped:    s.deduped.Load(),
		Batched:    s.batched.Load(),
		BatchLanes: s.batchLanes.Load(),
		Inflight:   inflight,
	}
}

// RunCells executes cells through the singleflight scheduler: each cell
// is served from the cache when its key is known, from another caller's
// in-flight run when one exists, and otherwise simulated — the misses
// this call leads are planned with mobisim.PlanBatchUnitsFor into
// lockstep units of at most width lanes (0 lets the planner choose for
// workers, or, when workers <= 0, for this call's share of GOMAXPROCS
// among the RunCells calls in progress), limit-aware cells sharing a
// warm-up prefix forking from an in-memory sentinel checkpoint, and run
// on at most workers units at a time (<= 0 uses GOMAXPROCS). A negative
// width is mobisim.ErrNegativeBatchWidth. The returned metrics are in
// cell order and each map is the caller's to keep.
//
// onCell, when non-nil, fires once per cell in cell order as results
// become available. tapFor, when non-nil, supplies the per-cell tap
// that receives a computed or deduped cell's observer samples, in time
// order, after completion; sample delivery is best-effort (see
// SampleFunc).
//
// Cancellation is per caller: a canceled ctx detaches this caller, and
// a unit is aborted only when every one of its cells has lost its last
// waiter, so one client canceling a job never kills a cell another job
// is waiting on. Lanes never interact and chunked stepping is
// trajectory-identical, so every metric set is bitwise-identical to a
// cold RunSweep of the same cell.
func (s *Scheduler) RunCells(ctx context.Context, cells []mobisim.Cell, width, workers int, onCell func(i int, origin Origin, metrics map[string]float64), tapFor func(i int) SampleFunc) ([]map[string]float64, RunStats, error) {
	if width < 0 {
		return nil, RunStats{}, mobisim.ErrNegativeBatchWidth
	}
	if err := ctx.Err(); err != nil {
		return nil, RunStats{}, err
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	metrics := make([]map[string]float64, len(cells))
	origins := make([]Origin, len(cells))

	// Phase 1: resolve each cell against the cache, joining a flight for
	// every miss. The first joiner of a key — here or in any concurrent
	// job — leads it; duplicates within this job follow their own lead.
	// Cancellation is deliberately not polled between joins: every led
	// flight must reach phase 2 so a cross-job follower that attaches in
	// the window always has a computation coming (phase 3 then unwinds a
	// canceled caller through the ordinary last-waiter-detach path).
	type pending struct {
		i      int // position in cells
		fl     *flight
		leader bool
	}
	var pend []pending
	var leaderIdx []int // pend positions of the leaders, in join order
	for i := range cells {
		m, tier := s.cache.Get(cells[i].Key)
		if tier == TierMiss {
			fl, leader, cached := s.join(cells[i].Key)
			if fl != nil {
				if leader {
					leaderIdx = append(leaderIdx, len(pend))
				}
				pend = append(pend, pending{i: i, fl: fl, leader: leader})
				continue
			}
			m, tier = cached, TierMemory
		}
		origins[i] = OriginMemCache
		if tier == TierDisk {
			origins[i] = OriginDiskCache
		}
		metrics[i] = m
		if onCell != nil {
			onCell(i, origins[i], m)
		}
	}

	// Phase 2: plan the led cells into units and launch them. Warm
	// sentinels checkpoint in memory, so warm grouping is unconditional.
	if len(leaderIdx) > 0 {
		specs := make([]mobisim.Scenario, len(leaderIdx))
		keys := make([]uint64, len(leaderIdx))
		flights := make([]*flight, len(leaderIdx))
		for k, pi := range leaderIdx {
			specs[k] = cells[pend[pi].i].Spec
			keys[k] = cells[pend[pi].i].Key
			flights[k] = pend[pi].fl
		}
		// Without a fixed worker count, the planner sizes units for this
		// call's share of GOMAXPROCS: concurrent jobs split the CPUs.
		planWorkers := workers
		if planWorkers <= 0 {
			planWorkers = max(1, runtime.GOMAXPROCS(0)/int(s.running.Load()))
		}
		units, err := mobisim.PlanBatchUnitsFor(specs, width, planWorkers, true)
		if err != nil {
			// A plan failure (key derivation) fails every led flight so no
			// cross-job waiter hangs; phase 3 surfaces the error here too.
			for k := range flights {
				s.publish(keys[k], flights[k], nil, err)
			}
		} else {
			s.launchUnits(specs, keys, flights, units, width, workers)
		}
	}

	// Phase 3: collect, waiting on each flight like any follower does.
	// After the caller is canceled, a completed flight is still consumed
	// (awaitFlight), so finished work is never discarded.
	var firstErr error
	for _, p := range pend {
		if firstErr != nil {
			s.leave(cells[p.i].Key, p.fl)
			continue
		}
		if err := awaitFlight(ctx, p.fl); err != nil {
			s.leave(cells[p.i].Key, p.fl)
			firstErr = err
			continue
		}
		s.leave(cells[p.i].Key, p.fl)
		if p.fl.err != nil {
			firstErr = p.fl.err
			continue
		}
		if tapFor != nil {
			if tap := tapFor(p.i); tap != nil {
				for k := range p.fl.samples {
					tap(p.fl.samples[k])
				}
			}
		}
		origin := OriginComputed
		if !p.leader {
			// Counted at receipt, not at join: a waiter that detaches
			// before the flight completes was never served a deduped
			// result and must not drift the counter.
			s.deduped.Add(1)
			origin = OriginDeduped
		}
		origins[p.i] = origin
		metrics[p.i] = copyMetrics(p.fl.metrics)
		if onCell != nil {
			onCell(p.i, origin, metrics[p.i])
		}
	}
	if firstErr != nil {
		return nil, RunStats{}, firstErr
	}
	stats := RunStats{Total: len(cells), ByOrigin: make(map[Origin]int)}
	for i := range cells {
		stats.ByOrigin[origins[i]]++
	}
	return metrics, stats, nil
}

// launchUnits runs planned units on detached goroutines bounded by a
// workers-wide semaphore, publishing each unit's outcome into its
// member flights. Units derive their context from the scheduler base —
// not the submitting job — so a unit outlives a canceled caller while
// any cross-job waiter remains; a per-unit watcher cancels it once
// every member flight is done or abandoned (each flight context ends
// either way), after which the next poll aborts the unit within
// mobisim.CtxCheckSteps steps.
func (s *Scheduler) launchUnits(specs []mobisim.Scenario, keys []uint64, flights []*flight, units []mobisim.BatchPlanUnit, width, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	for _, u := range units {
		u := u
		uctx, ucancel := context.WithCancel(s.base)
		ufl := make([]*flight, len(u.Idx))
		for k, li := range u.Idx {
			ufl[k] = flights[li]
		}
		go func() {
			for _, fl := range ufl {
				<-fl.ctx.Done()
			}
			ucancel()
		}()
		go func() {
			defer ucancel()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.runUnit(uctx, specs, keys, flights, u, width)
		}()
	}
}

// runUnit executes one unit and publishes per-lane outcomes. Lane
// observers record into their flight's sample buffer; close(done) in
// publish is the happens-before edge to waiters.
func (s *Scheduler) runUnit(ctx context.Context, specs []mobisim.Scenario, keys []uint64, flights []*flight, u mobisim.BatchPlanUnit, width int) {
	opt := mobisim.BatchRunOptions{
		Observer: func(i int) mobisim.Observer {
			fl := flights[i]
			return observerFunc(func(smp *mobisim.Sample) error {
				if len(fl.samples) < maxFlightSamples {
					fl.samples = append(fl.samples, Sample{
						TimeS:    smp.TimeS,
						MaxTempC: thermal.ToCelsius(smp.MaxTempK),
						SensorC:  thermal.ToCelsius(smp.SensorK),
						TotalW:   smp.TotalW,
					})
				}
				return nil
			})
		},
	}
	out, err := s.batch.RunUnit(ctx, specs, u, width, opt)
	if err != nil {
		for _, li := range u.Idx {
			s.publish(keys[li], flights[li], nil, err)
		}
		return
	}
	s.batched.Add(1)
	s.batchLanes.Add(uint64(len(u.Idx)))
	for k, li := range u.Idx {
		s.publish(keys[li], flights[li], out[k], nil)
	}
}

// awaitFlight blocks until the flight completes or ctx is canceled.
// After ctx fires, the flight gets one last non-blocking look: Go
// selects pseudo-randomly among ready cases, so the plain two-case
// select would throw away an already-completed result about half the
// time a job is canceled at the finish line. Finished work is never
// discarded.
func awaitFlight(ctx context.Context, fl *flight) error {
	select {
	case <-fl.done:
		return nil
	case <-ctx.Done():
		select {
		case <-fl.done:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// join attaches the caller to the key's flight, creating it (and
// electing the caller leader) when none is in flight. A flight that
// completed since the caller's cache miss stored its metrics in the
// memory tier before it retired (see publish), so before electing a
// leader join looks there again and returns the metrics instead of a
// flight; otherwise that window would simulate the cell twice.
func (s *Scheduler) join(key uint64) (*flight, bool, map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.flights[key]; ok {
		fl.mu.Lock()
		fl.refs++
		fl.mu.Unlock()
		return fl, false, nil
	}
	if m, ok := s.cache.peek(key); ok {
		return nil, false, m
	}
	ctx, cancel := context.WithCancel(s.base)
	fl := &flight{ctx: ctx, cancel: cancel, done: make(chan struct{}), refs: 1}
	s.flights[key] = fl
	return fl, true, nil
}

// leave detaches one waiter; the last one out cancels the flight
// context and retires the flight. A later RunCells for the same key
// then starts fresh — if it races a still-unwinding unit, both produce
// identical bytes by content addressing, so the race is benign.
func (s *Scheduler) leave(key uint64, fl *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fl.mu.Lock()
	fl.refs--
	last := fl.refs == 0
	fl.mu.Unlock()
	if last {
		fl.cancel()
		if s.flights[key] == fl {
			delete(s.flights, key)
		}
	}
}

// publish completes a leader flight: outcome fields, counters, the
// cache store, the done broadcast, and flight retirement.
func (s *Scheduler) publish(key uint64, fl *flight, metrics map[string]float64, err error) {
	fl.metrics, fl.err = metrics, err
	if err == nil {
		s.computed.Add(1)
		// A disk write failure degrades to recomputation later; the
		// memory tier and this flight's waiters still have the result.
		_ = s.cache.Put(key, metrics)
	}
	close(fl.done)
	fl.cancel()
	s.mu.Lock()
	if s.flights[key] == fl {
		delete(s.flights, key)
	}
	s.mu.Unlock()
}

// observerFunc adapts a closure to the engine Observer interface.
type observerFunc func(*mobisim.Sample) error

func (f observerFunc) OnSample(smp *mobisim.Sample) error { return f(smp) }
