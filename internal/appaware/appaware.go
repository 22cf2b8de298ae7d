// Package appaware implements the paper's primary contribution
// (Section IV-B): an application-aware thermal management governor
// built on the power-temperature stability analysis.
//
// Every control period (100 ms in the paper) the governor:
//
//  1. Estimates the platform's dynamic power and computes the stable
//     fixed-point temperature of the power-temperature dynamics.
//  2. If the fixed point exceeds the thermal limit (or the system is in
//     thermal runaway), it estimates the time until the temperature
//     reaches the limit.
//  3. If that time is below a user-defined horizon, a violation is
//     imminent: the governor selects the most power-hungry non-real-time
//     process on the big cluster — judged by a one-second average to
//     filter momentary peaks — and migrates it to the LITTLE cluster.
//
// Unlike the default governors, which throttle every domain, only the
// offending process is penalized; registered real-time processes are
// never chosen as victims.
//
// Each tick decides steps 1 and 2 from one exponential apiece, and runs
// the exact analysis only where a certified test cannot answer or a
// value is consumed:
//
//   - stability.Params.DecideAbove evaluates ψ and ψ′ at the limit's
//     auxiliary temperature and answers "fixed point above the limit
//     (or runaway)" or "below" outside a rounding margin. Inside it,
//     the tick runs Params.Analyze and decides from its fixed point.
//   - On a chip violation, stability.Params.ProvablyBelow bounds the
//     temperature slope on [sensor, limit] and proves, when it can, that
//     the time-to-limit integration would return +Inf (no crossing
//     within the horizon). Otherwise the tick integrates as before.
//   - The exact fixed point is computed only when it is read: for the
//     PredictedFixedK of an event the tick records, and for the restore
//     and unthrottle dwell checks while they are live (restoration
//     enabled with a victim on the stack, or the big cluster capped).
//
// A certified answer equals the exact one on every input, so decisions,
// events and the prediction count are bitwise those of running the
// analysis and the integration every tick (pinned against a frozen copy
// of that procedure in frozen_test.go).
package appaware

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stability"
)

// Policy selects what the governor does when a violation is imminent.
type Policy int

// Victim policies.
const (
	// PolicyMigrate moves the most power-hungry non-real-time process
	// to the LITTLE cluster — the paper's proposal.
	PolicyMigrate Policy = iota
	// PolicyThrottle instead steps the big cluster's frequency cap down
	// one OPP (and back up when the prediction clears). It uses the same
	// fixed-point prediction but punishes every process on the cluster —
	// the comparator for the migration-vs-throttling ablation.
	PolicyThrottle
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyMigrate:
		return "migrate"
	case PolicyThrottle:
		return "throttle"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes the governor.
type Config struct {
	// Policy selects the mitigation action (default PolicyMigrate).
	Policy Policy
	// ThermalLimitK is the temperature limit; 0 means the platform's
	// configured limit.
	ThermalLimitK float64
	// HorizonS is the user-defined time-to-violation limit: predicted
	// violations closer than this trigger migration (default 10 s).
	HorizonS float64
	// IntervalS is the control period (default 0.1 s, as in the paper).
	IntervalS float64
	// RestoreMarginK and RestoreAfterS govern migrating victims back:
	// once the predicted fixed point stays below limit − margin for the
	// dwell time, the most recent victim returns to the big cluster.
	// RestoreAfterS = 0 disables restoration (the paper's experiments
	// keep the victim on LITTLE).
	RestoreMarginK float64
	RestoreAfterS  float64
	// SkinLimitK optionally adds a skin-temperature constraint (the
	// user-experience quantity the paper's introduction motivates and
	// its conclusion proposes as future work): the governor predicts the
	// steady-state temperature of the platform's "skin" node from the
	// full RC network under the current power pattern, and treats a
	// predicted exceedance as a violation too. 0 disables the check;
	// it is also inert on platforms without a "skin" node.
	SkinLimitK float64
}

// DefaultConfig mirrors the paper's parameters: 100 ms control period,
// 1 s power window (owned by the engine), no restore.
func DefaultConfig() Config {
	return Config{
		HorizonS:       10,
		IntervalS:      0.1,
		RestoreMarginK: 5,
	}
}

// EventKind labels governor decisions.
type EventKind int

// Event kinds.
const (
	// EventMigrate moved a process to the LITTLE cluster.
	EventMigrate EventKind = iota
	// EventRestore moved a process back to the big cluster.
	EventRestore
	// EventThrottle stepped the big-cluster cap down (PolicyThrottle).
	EventThrottle
	// EventUnthrottle stepped the big-cluster cap up (PolicyThrottle).
	EventUnthrottle
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventMigrate:
		return "migrate"
	case EventRestore:
		return "restore"
	case EventThrottle:
		return "throttle"
	case EventUnthrottle:
		return "unthrottle"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one recorded governor decision.
type Event struct {
	// TimeS is when the decision fired.
	TimeS float64
	// Kind is the decision type.
	Kind EventKind
	// PID is the affected process.
	PID int
	// PredictedFixedK is the stable fixed-point temperature at decision
	// time (0 for runaway).
	PredictedFixedK float64
	// TimeToLimitS is the estimated time to the thermal limit
	// (+Inf when not reachable).
	TimeToLimitS float64
}

// Governor is the application-aware thermal governor. It implements
// sim.Controller.
type Governor struct {
	cfg    Config
	params stability.Params
	haveP  bool

	events  []Event
	victims []int // migration stack, most recent last

	coolSince float64 // when the prediction last dropped below the
	// restore threshold; -1 when currently hot
	predictions int

	// avgPowerFn caches avgPowerEng's per-task power lookup so victim
	// selection allocates nothing per control tick; rebuilt whenever
	// Control is handed a different engine.
	avgPowerFn  func(pid int) float64
	avgPowerEng *sim.Engine

	// shared optionally memoizes the stability computations across
	// governors driven in lockstep (see ShareTransientCache).
	shared *stability.TransientCache
}

// New validates cfg and builds the governor.
func New(cfg Config) (*Governor, error) {
	if cfg.HorizonS == 0 {
		cfg.HorizonS = 10
	}
	if cfg.IntervalS == 0 {
		cfg.IntervalS = 0.1
	}
	// Every bound is checked as !(v ok) so NaN fails it; +Inf is
	// rejected too: an infinite horizon has no integration step count,
	// and a non-finite interval stops the control clock.
	switch {
	case !(cfg.HorizonS > 0) || math.IsInf(cfg.HorizonS, 1):
		return nil, fmt.Errorf("appaware: horizon must be finite and > 0, got %v", cfg.HorizonS)
	case !(cfg.IntervalS > 0) || math.IsInf(cfg.IntervalS, 1):
		return nil, fmt.Errorf("appaware: interval must be finite and > 0, got %v", cfg.IntervalS)
	case !(cfg.RestoreMarginK >= 0) || math.IsInf(cfg.RestoreMarginK, 1) ||
		!(cfg.RestoreAfterS >= 0) || math.IsInf(cfg.RestoreAfterS, 1):
		return nil, fmt.Errorf("appaware: restore parameters must be finite and >= 0, got margin %v, dwell %v", cfg.RestoreMarginK, cfg.RestoreAfterS)
	case !(cfg.ThermalLimitK >= 0) || math.IsInf(cfg.ThermalLimitK, 1):
		return nil, fmt.Errorf("appaware: thermal limit must be finite and >= 0 Kelvin, got %v", cfg.ThermalLimitK)
	case !(cfg.SkinLimitK >= 0) || math.IsInf(cfg.SkinLimitK, 1):
		return nil, fmt.Errorf("appaware: skin limit must be finite and >= 0 Kelvin, got %v", cfg.SkinLimitK)
	}
	return &Governor{cfg: cfg, coolSince: -1}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Governor {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements sim.Controller.
func (g *Governor) Name() string { return "appaware" }

// IntervalS implements sim.Controller.
func (g *Governor) IntervalS() float64 { return g.cfg.IntervalS }

// Events returns the recorded decisions.
func (g *Governor) Events() []Event { return append([]Event(nil), g.events...) }

// Migrations reports how many victim migrations fired.
func (g *Governor) Migrations() int {
	n := 0
	for _, ev := range g.events {
		if ev.Kind == EventMigrate {
			n++
		}
	}
	return n
}

// Predictions reports how many control ticks predicted the fixed
// point, by a certified test or the full analysis.
func (g *Governor) Predictions() int { return g.predictions }

// EventCount reports how many control events have fired, without
// copying the event log. The warm-start sweep executor polls it every
// step to detect the governor's first limit-dependent action, so it
// must stay allocation-free.
func (g *Governor) EventCount() int { return len(g.events) }

// ShareTransientCache points the governor at a stability memo shared
// with other governors stepped in lockstep (the batched sweep
// executor's lanes). Lanes fed bitwise-equal power and sensor inputs —
// paired-seed sweep cells before their trajectories diverge — then pay
// for one fixed-point analysis and one ODE integration instead of one
// per lane; results are bitwise-identical either way. The cache must
// only be shared between governors driven by the same goroutine.
func (g *Governor) ShareTransientCache(c *stability.TransientCache) { g.shared = c }

// analyze runs the fixed-point analysis, through the shared memo when
// one is attached.
func (g *Governor) analyze(pdW float64) (stability.Analysis, error) {
	if g.shared != nil {
		return g.shared.Analyze(g.params, pdW)
	}
	return g.params.Analyze(pdW)
}

// timeToThreshold estimates time to the thermal limit, through the
// shared memo when one is attached.
func (g *Governor) timeToThreshold(pdW, fromK, thresholdK, horizonS float64) (float64, error) {
	if g.shared != nil {
		return g.shared.TimeToThreshold(g.params, pdW, fromK, thresholdK, horizonS)
	}
	return g.params.TimeToThreshold(pdW, fromK, thresholdK, horizonS)
}

// LimitK returns the thermal limit (Kelvin) the governor enforces on
// the engine's platform: its configured limit, else the platform's.
func (g *Governor) LimitK(e *sim.Engine) float64 {
	if g.cfg.ThermalLimitK != 0 {
		return g.cfg.ThermalLimitK
	}
	return e.Platform().ThermalLimitK()
}

// prediction is one control tick's fixed-point analysis, run at most
// once and only when its result is consumed.
type prediction struct {
	pdW  float64
	an   stability.Analysis
	done bool
}

// stableTempK returns the tick's exact stable fixed-point temperature
// (0 for runaway), running the analysis on first use.
func (g *Governor) stableTempK(p *prediction) float64 {
	if !p.done {
		// Control reaches here without an analysis only after
		// DecideAbove certified the tick, which it does only where
		// Analyze succeeds, so the error is always nil.
		p.an, _ = g.analyze(p.pdW)
		p.done = true
	}
	return p.an.StableTempK
}

// Control implements sim.Controller: one decision of Section IV-B.
func (g *Governor) Control(nowS float64, e *sim.Engine) {
	if !g.haveP {
		p, err := e.Platform().StabilityParams()
		if err != nil {
			return
		}
		g.params = p
		g.haveP = true
	}
	pd := e.DynamicPowerW()
	if pd <= 0 {
		return
	}
	limitK := g.LimitK(e)
	pred := prediction{pdW: pd}
	chipViolation, certain := g.params.DecideAbove(pd, limitK)
	if !certain {
		an, err := g.analyze(pd)
		if err != nil {
			return
		}
		pred.an, pred.done = an, true
		chipViolation = an.Class == stability.Runaway || an.StableTempK > limitK
	}
	g.predictions++
	tempK := e.SensorTempK()

	skinViolation := g.skinViolation(e)
	if !chipViolation && !skinViolation {
		if g.cfg.Policy == PolicyThrottle {
			g.maybeUnthrottle(nowS, e, &pred, limitK)
		} else {
			g.maybeRestore(nowS, e, &pred, limitK)
		}
		return
	}
	g.coolSince = -1

	// A chip-limit violation acts only when imminent; a predicted skin
	// exceedance acts immediately (skin dynamics are much slower, so by
	// the time it is "imminent" the user already feels it).
	tta := 0.0
	if chipViolation {
		// Without a skin constraint, any crossing beyond HorizonS is
		// handled identically ("distant, recheck next tick"), so the
		// integration horizon is capped at HorizonS: a crossing inside
		// it yields the same tta bitwise, a crossing beyond it the same
		// decision. The cap is only taken when it leaves the
		// integrator's step choice (min(R·C/200, horizon/10))
		// untouched, and skin-constrained configs keep the 2× horizon
		// because they log tta values from the (HorizonS, 2·HorizonS]
		// band.
		horizon := g.cfg.HorizonS * 2
		if !skinViolation && g.params.ResistanceKPerW*g.params.CapacitanceJPerK/200 <= g.cfg.HorizonS/10 {
			horizon = g.cfg.HorizonS
		}
		if g.params.ProvablyBelow(pd, tempK, limitK, horizon) {
			tta = math.Inf(1) // what the integration would return
		} else {
			var err error
			tta, err = g.timeToThreshold(pd, tempK, limitK, horizon)
			if err != nil {
				return
			}
		}
		if tta > g.cfg.HorizonS && !skinViolation {
			return // violation is distant; act next time it is imminent
		}
	}

	if g.cfg.Policy == PolicyThrottle {
		g.throttle(nowS, e, &pred, tta)
		return
	}

	if g.avgPowerEng != e {
		g.avgPowerFn = e.TaskAvgPowerW
		g.avgPowerEng = e
	}
	pid, ok := e.Scheduler().MostPowerHungryFunc(sched.Big, g.avgPowerFn)
	if !ok {
		return // nothing eligible to migrate
	}
	if err := e.Scheduler().Migrate(pid, sched.Little); err != nil {
		return
	}
	g.victims = append(g.victims, pid)
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventMigrate,
		PID:             pid,
		PredictedFixedK: g.stableTempK(&pred),
		TimeToLimitS:    tta,
	})
}

// skinViolation predicts the skin node's steady-state temperature from
// the full RC network under the current power pattern; it reports true
// when the prediction exceeds the configured skin limit.
func (g *Governor) skinViolation(e *sim.Engine) bool {
	if g.cfg.SkinLimitK == 0 {
		return false
	}
	skinID, ok := e.Platform().NodeByName("skin")
	if !ok {
		return false
	}
	temps, err := e.Platform().Net.SteadyState(e.NodePowers())
	if err != nil {
		return false
	}
	return temps[skinID] > g.cfg.SkinLimitK
}

// throttle steps the big cluster's frequency cap one OPP down.
func (g *Governor) throttle(nowS float64, e *sim.Engine, pred *prediction, tta float64) {
	dom := e.Platform().Domain(platform.DomBig)
	table := dom.Table()
	cur := dom.Cap()
	if cur == 0 {
		cur = table.Max().FreqHz
	}
	i := table.IndexOf(table.Floor(cur).FreqHz)
	if i <= 0 {
		return // already at the bottom
	}
	dom.SetCap(table.At(i - 1).FreqHz)
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventThrottle,
		PredictedFixedK: g.stableTempK(pred),
		TimeToLimitS:    tta,
	})
}

// maybeUnthrottle lifts the big-cluster cap one OPP after the
// prediction has stayed below limit − margin for the dwell time.
func (g *Governor) maybeUnthrottle(nowS float64, e *sim.Engine, pred *prediction, limitK float64) {
	dom := e.Platform().Domain(platform.DomBig)
	if dom.Cap() == 0 {
		return
	}
	fixedK := g.stableTempK(pred)
	if fixedK >= limitK-g.cfg.RestoreMarginK {
		g.coolSince = -1
		return
	}
	if g.coolSince < 0 {
		g.coolSince = nowS
		return
	}
	if g.cfg.RestoreAfterS != 0 && nowS-g.coolSince < g.cfg.RestoreAfterS {
		return
	}
	table := dom.Table()
	i := table.IndexOf(table.Floor(dom.Cap()).FreqHz)
	if i+1 >= table.Len() {
		dom.SetCap(0)
	} else {
		dom.SetCap(table.At(i + 1).FreqHz)
	}
	g.coolSince = -1
	g.events = append(g.events, Event{TimeS: nowS, Kind: EventUnthrottle, PredictedFixedK: fixedK})
}

// maybeRestore returns the most recent victim to the big cluster after
// the prediction has stayed comfortably below the limit for the dwell
// time.
func (g *Governor) maybeRestore(nowS float64, e *sim.Engine, pred *prediction, limitK float64) {
	if g.cfg.RestoreAfterS == 0 || len(g.victims) == 0 {
		return
	}
	fixedK := g.stableTempK(pred)
	if fixedK >= limitK-g.cfg.RestoreMarginK {
		g.coolSince = -1
		return
	}
	if g.coolSince < 0 {
		g.coolSince = nowS
		return
	}
	if nowS-g.coolSince < g.cfg.RestoreAfterS {
		return
	}
	pid := g.victims[len(g.victims)-1]
	if err := e.Scheduler().Migrate(pid, sched.Big); err != nil {
		return
	}
	g.victims = g.victims[:len(g.victims)-1]
	g.coolSince = -1
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventRestore,
		PID:             pid,
		PredictedFixedK: fixedK,
	})
}
