package stability

import (
	"fmt"
	"math"
)

// TransientCache memoizes the pure functions of the stability analysis
// — fixed-point classification and lumped-ODE trajectories — across
// callers that share identical parameters and inputs. It exists for
// the batched sweep executor: lockstep lanes with paired seeds feed
// the analysis bitwise-identical dynamic power and sensor readings for
// as long as their trajectories coincide (limit-agnostic lanes: the
// whole run), so one integration can serve several lanes. Cached
// results are served only for exactly equal inputs, and the trajectory
// replay below re-runs the original loop's control flow over recorded
// temperatures, so a cache hit is bitwise-indistinguishable from a
// fresh computation.
//
// A TransientCache is not safe for concurrent use; share one per
// lockstep batch (one goroutine), never across sweep workers.
type TransientCache struct {
	params     Params
	haveParams bool

	analyses map[float64]Analysis // keyed by pd
	trajs    map[trajKey][]float64
	spare    [][]float64 // retired trajectory slices for reuse

	hits int
}

// trajKey identifies one recorded trajectory: everything that shapes
// the temperature sequence except the crossing target, which the
// replay applies.
type trajKey struct {
	pd, from, dt float64
	steps        int
}

// maxTrajSteps bounds the length of a recorded trajectory. Longer
// horizons are integrated in place rather than memoized.
const maxTrajSteps = 4096

// memoCap bounds both memo maps: a lockstep batch revisits at most a
// handful of distinct inputs per control tick, and inputs drift every
// tick, so stale entries are purged wholesale instead of tracked.
const memoCap = 16

// NewTransientCache returns an empty cache.
func NewTransientCache() *TransientCache {
	return &TransientCache{
		analyses: make(map[float64]Analysis, memoCap),
		trajs:    make(map[trajKey][]float64, memoCap),
	}
}

// Hits reports how many calls the memo answered.
func (c *TransientCache) Hits() int { return c.hits }

// adopt rebinds the cache to a parameter set, flushing the memos when
// it actually changed. Lanes of one batch share a platform and thus
// parameters; the check makes cross-platform reuse safe rather than
// subtly wrong.
func (c *TransientCache) adopt(p Params) {
	if c.haveParams && c.params == p {
		return
	}
	c.params = p
	c.haveParams = true
	c.flushAnalyses()
	c.flushTrajs()
}

func (c *TransientCache) flushAnalyses() {
	for k := range c.analyses {
		delete(c.analyses, k)
	}
}

func (c *TransientCache) flushTrajs() {
	for k, t := range c.trajs {
		c.spare = append(c.spare, t[:0])
		delete(c.trajs, k)
	}
}

// Analyze is Params.Analyze memoized on the dynamic power.
func (c *TransientCache) Analyze(p Params, pdW float64) (Analysis, error) {
	c.adopt(p)
	if an, ok := c.analyses[pdW]; ok {
		c.hits++
		return an, nil
	}
	an, err := p.Analyze(pdW)
	if err != nil {
		return an, err
	}
	if len(c.analyses) >= memoCap {
		c.flushAnalyses()
	}
	c.analyses[pdW] = an
	return an, nil
}

// TimeToThreshold is Params.TimeToThreshold backed by the trajectory
// memo: the ODE integration — the expensive part, four leakage
// exponentials per step — runs once per distinct (pd, from) and is
// replayed against each caller's threshold.
func (c *TransientCache) TimeToThreshold(p Params, pdW, fromK, thresholdK, horizonS float64) (float64, error) {
	c.adopt(p)
	// Mirror TimeToTemp's validation and degenerate cases exactly.
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if fromK <= 0 || thresholdK <= 0 {
		return 0, fmt.Errorf("stability: temperatures must be positive Kelvin (from=%v target=%v)", fromK, thresholdK)
	}
	if horizonS <= 0 {
		return 0, fmt.Errorf("stability: horizon must be positive, got %v", horizonS)
	}
	if fromK == thresholdK {
		return 0, nil
	}
	dt := p.ResistanceKPerW * p.CapacitanceJPerK / 200
	if dt > horizonS/10 {
		dt = horizonS / 10
	}
	if !(horizonS/dt <= maxTrajSteps) {
		// Too long to record (an infinite horizon has no step count at
		// all): integrate in place, which stops at the crossing or the
		// stall.
		return p.TimeToThreshold(pdW, fromK, thresholdK, horizonS)
	}
	steps := trajSteps(dt, horizonS)
	key := trajKey{pd: pdW, from: fromK, dt: dt, steps: steps}
	traj, ok := c.trajs[key]
	if ok {
		c.hits++
	} else {
		traj = c.record(p, pdW, fromK, dt, steps)
		if len(c.trajs) >= memoCap {
			c.flushTrajs()
		}
		c.trajs[key] = traj
	}

	// Replay TimeToTemp's loop over the recorded temperatures: same
	// crossing test, same interpolation, same stall check, same elapsed
	// accumulation — bitwise-identical to integrating in place.
	rising := thresholdK >= fromK
	t := fromK
	elapsed := 0.0
	for i := 0; elapsed < horizonS; i++ {
		next := traj[i]
		if rising && next >= thresholdK || !rising && next <= thresholdK {
			frac := 1.0
			if next != t {
				frac = (thresholdK - t) / (next - t)
			}
			return elapsed + frac*dt, nil
		}
		if math.Abs(next-t) < 1e-12 {
			return math.Inf(1), nil
		}
		t = next
		elapsed += dt
	}
	return math.Inf(1), nil
}

// trajSteps counts the iterations TimeToTemp's `for elapsed < horizonS`
// loop performs when nothing terminates it early, by replaying the
// float accumulation (elapsed is a repeated float sum, so a closed-form
// count could disagree at the boundary).
func trajSteps(dt, horizonS float64) int {
	n := 0
	for elapsed := 0.0; elapsed < horizonS; elapsed += dt {
		n++
	}
	return n
}

// record integrates the full trajectory — steps RK4 updates from fromK
// — with the exact stage arithmetic of TimeToTemp. Unlike TimeToTemp
// it never stops at a crossing (different callers cross at different
// thresholds), so a recorded trajectory serves any threshold.
func (c *TransientCache) record(p Params, pdW, fromK, dt float64, steps int) []float64 {
	var traj []float64
	if n := len(c.spare); n > 0 {
		traj = c.spare[n-1][:0]
		c.spare = c.spare[:n-1]
	}
	q := p
	q.pdForTransient = pdW
	t := fromK
	for i := 0; i < steps; i++ {
		k1 := q.dTdt(t, q.pdForTransient)
		k2 := q.dTdt(t+0.5*dt*k1, q.pdForTransient)
		k3 := q.dTdt(t+0.5*dt*k2, q.pdForTransient)
		k4 := q.dTdt(t+dt*k3, q.pdForTransient)
		t = t + dt/6*(k1+2*k2+2*k3+k4)
		traj = append(traj, t)
	}
	return traj
}
