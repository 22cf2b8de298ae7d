// Batched lockstep execution: BatchEngine steps B independent engines
// together, so a scenario sweep integrates the thermal networks of
// eight lanes per call of thermal.BatchNetwork's packed RK4 kernel
// instead of one network per Network.Step.
//
// Every lane runs the engine's own stepPre, stepPower and stepPost
// (step.go); only the leakage exponentials and the thermal integration
// between them are fused across lanes. Each lane's stepPower output
// powers go straight into its slot of the kernel's block-of-8 layout.
// Lanes never interact, and both kernels perform each lane's float64
// operations exactly as the scalar code does (power.ExpInto is
// math.Exp bit for bit; the RK4 kernel keeps Network.Step's operation
// order), so a batched lane is bitwise-identical to the engine
// stepped alone at every width (TestBatchMatchesScalar, the sweep
// goldens). A one-lane batch needs no fused kernel and steps its
// engine directly.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/power"
	"repro/internal/thermal"
)

// BatchEngine advances B independent engines in lockstep, fusing the
// per-step thermal integration across lanes through a shared
// structure-of-arrays BatchNetwork. All lanes must share a platform
// topology (same thermal network structure) and integration step;
// everything else — workloads, governors, seeds, controllers — may
// differ per lane. Results are bitwise-identical to running each lane
// alone. A one-lane batch is that solo run: it steps its engine
// directly, without a BatchNetwork.
//
// A BatchEngine is not safe for concurrent use, and the lanes must not
// be stepped independently while batched. On error the batch stops
// immediately; the failing step may then be partially applied across
// lanes, so a failed batch should be discarded, not resumed.
type BatchEngine struct {
	lanes []*Engine
	bnet  *thermal.BatchNetwork
	nets  []*thermal.Network
	stepS float64
	// lk is per-step scratch: lane li's three leakage exponents at
	// [3*li, 3*li+3), exponentiated in place by one power.ExpInto.
	lk []float64
}

// NewBatchEngine couples the given engines into one lockstep batch.
func NewBatchEngine(lanes []*Engine) (*BatchEngine, error) {
	b := &BatchEngine{}
	if err := b.Reset(lanes); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset rebinds the batch to a new set of lanes, reusing the fused
// kernel's buffers when the shape is unchanged — the hook that lets
// sweep pools recycle batch engines instead of constructing one per
// matrix cell.
func (b *BatchEngine) Reset(lanes []*Engine) error {
	if len(lanes) == 0 {
		return fmt.Errorf("sim: batch needs at least one lane")
	}
	step := lanes[0].cfg.StepS
	for i, e := range lanes {
		if e.cfg.StepS != step {
			return fmt.Errorf("sim: batch lane %d step %v differs from lane 0 step %v", i, e.cfg.StepS, step)
		}
	}
	b.nets = b.nets[:0]
	if len(lanes) > 1 {
		for _, e := range lanes {
			b.nets = append(b.nets, e.plat.Net)
		}
		if b.bnet == nil {
			bn, err := thermal.NewBatchNetwork(b.nets)
			if err != nil {
				return err
			}
			b.bnet = bn
		} else if err := b.bnet.Rebind(b.nets); err != nil {
			return err
		}
	}
	b.lanes = append(b.lanes[:0], lanes...)
	b.stepS = step
	b.lk = slices.Grow(b.lk[:0], 3*len(lanes))[:3*len(lanes)]
	return nil
}

// Lanes returns the engines the batch is driving, in lane order.
func (b *BatchEngine) Lanes() []*Engine { return b.lanes }

// Run advances every lane by durationS seconds, mirroring
// Engine.Run's duration-to-step conversion.
func (b *BatchEngine) Run(durationS float64) error {
	if durationS <= 0 || math.IsNaN(durationS) || math.IsInf(durationS, 0) {
		return fmt.Errorf("sim: run duration must be positive and finite, got %v", durationS)
	}
	steps := math.Round(durationS / b.stepS)
	if steps > MaxRunSteps || steps > float64(math.MaxInt) {
		return fmt.Errorf("sim: duration %v spans %.0f steps of %v, exceeding the %.0f-step run bound",
			durationS, steps, b.stepS, math.Min(MaxRunSteps, float64(math.MaxInt)))
	}
	return b.RunSteps(int(steps))
}

// RunSteps advances every lane by exactly steps fixed integration
// steps. Per step, each lane runs stepPre and stages its three leakage
// exponents, one power.ExpInto exponentiates all 3·B of them, each
// lane runs stepPower and stages its node powers, the fused kernel
// integrates all lanes' thermal networks, and each lane runs its
// post-thermal phases. Steady-state execution performs zero
// allocations.
func (b *BatchEngine) RunSteps(steps int) error {
	if len(b.lanes) == 1 {
		return b.lanes[0].RunSteps(steps)
	}
	if steps < 0 {
		return fmt.Errorf("sim: step count must be >= 0, got %d", steps)
	}
	// Re-sync the packed state once per run: lane temperatures may have
	// been written externally (Prewarm, SetTemperature) since the last
	// fused step. Within the run the kernel keeps both sides coherent.
	b.bnet.Gather()
	lk := b.lk
	for s := 0; s < steps; s++ {
		for li, e := range b.lanes {
			if err := e.stepPre(lk[3*li : 3*li+3]); err != nil {
				return fmt.Errorf("sim: lane %d t=%.3fs: %w", li, e.now, err)
			}
		}
		power.ExpInto(lk, lk)
		for li, e := range b.lanes {
			if err := e.stepPower(lk[3*li : 3*li+3]); err != nil {
				return fmt.Errorf("sim: lane %d t=%.3fs: %w", li, e.now, err)
			}
			b.bnet.SetLanePowers(li, e.powers)
		}
		if err := b.bnet.Advance(b.stepS); err != nil {
			return fmt.Errorf("sim: batch thermal step: %w", err)
		}
		for li, e := range b.lanes {
			if err := e.stepPost(); err != nil {
				return fmt.Errorf("sim: lane %d t=%.3fs: %w", li, e.now, err)
			}
		}
	}
	return nil
}

// BatchPool is a sync.Pool-style free list of reusable BatchEngines:
// Get pops a shell and rebinds it to the caller's lanes (reusing the
// fused kernel's buffers when shapes match), Put returns it. Unlike
// sync.Pool it never drops shells under GC pressure and is safe for
// deterministic reuse accounting in tests. The zero value is ready.
type BatchPool struct {
	mu     sync.Mutex
	free   []*BatchEngine
	reuses int
}

// Get returns a batch engine bound to lanes, recycling a pooled shell
// when one is available.
func (p *BatchPool) Get(lanes []*Engine) (*BatchEngine, error) {
	p.mu.Lock()
	var b *BatchEngine
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
		p.reuses++
	}
	p.mu.Unlock()
	if b == nil {
		return NewBatchEngine(lanes)
	}
	if err := b.Reset(lanes); err != nil {
		return nil, err
	}
	return b, nil
}

// Put returns a batch engine to the free list. The engine must not be
// used again until handed back out by Get.
func (p *BatchPool) Put(b *BatchEngine) {
	if b == nil {
		return
	}
	// Drop lane references so pooled shells never pin finished engines
	// (and their recorded traces) in memory.
	b.lanes = b.lanes[:0]
	b.nets = b.nets[:0]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Reuses reports how many Get calls were served from the free list.
func (p *BatchPool) Reuses() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reuses
}
