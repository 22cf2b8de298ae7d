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
// never chosen as victims. A victim stays on the LITTLE cluster for the
// rest of the run, as in the paper's experiments.
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
//     PredictedFixedK of an event the tick records.
//
// A certified answer equals the exact one on every input, so decisions,
// events and the prediction count are bitwise those of running the
// analysis and the integration every tick (pinned against a frozen copy
// of that procedure in frozen_test.go).
package appaware

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stability"
)

// Config parameterizes the governor.
type Config struct {
	// ThermalLimitK is the temperature limit; 0 means the platform's
	// configured limit.
	ThermalLimitK float64
	// HorizonS is the user-defined time-to-violation limit: predicted
	// violations closer than this trigger migration (default 10 s).
	HorizonS float64
	// IntervalS is the control period (default 0.1 s, as in the paper).
	IntervalS float64
}

// EventKind labels governor decisions.
type EventKind int

// EventMigrate moved a process to the LITTLE cluster, the only decision
// the governor takes.
const EventMigrate EventKind = 0

// String names the event kind.
func (k EventKind) String() string {
	if k == EventMigrate {
		return "migrate"
	}
	return fmt.Sprintf("event(%d)", int(k))
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

	events      []Event
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
	case !(cfg.ThermalLimitK >= 0) || math.IsInf(cfg.ThermalLimitK, 1):
		return nil, fmt.Errorf("appaware: thermal limit must be finite and >= 0 Kelvin, got %v", cfg.ThermalLimitK)
	}
	return &Governor{cfg: cfg}, nil
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
	// The exact analysis runs only where DecideAbove cannot answer or an
	// event reads its fixed point, at most once per tick.
	var an stability.Analysis
	chipViolation, certain := g.params.DecideAbove(pd, limitK)
	if !certain {
		var err error
		if an, err = g.analyze(pd); err != nil {
			return
		}
		chipViolation = an.Class == stability.Runaway || an.StableTempK > limitK
	}
	g.predictions++
	// Read the sensor every tick, violation or not: a read can draw the
	// sensor's noise stream and advance its sample clock.
	tempK := e.SensorTempK()
	if !chipViolation {
		return
	}

	// Any crossing beyond HorizonS is handled identically ("distant,
	// recheck next tick"), so the integration horizon is capped at
	// HorizonS: a crossing inside it yields the same tta bitwise, a
	// crossing beyond it the same decision. The cap is only taken when
	// it leaves the integrator's step choice (min(R·C/200, horizon/10))
	// untouched; otherwise the horizon stays at 2·HorizonS.
	horizon := g.cfg.HorizonS * 2
	if g.params.ResistanceKPerW*g.params.CapacitanceJPerK/200 <= g.cfg.HorizonS/10 {
		horizon = g.cfg.HorizonS
	}
	var tta float64
	if g.params.ProvablyBelow(pd, tempK, limitK, horizon) {
		tta = math.Inf(1) // what the integration would return
	} else {
		var err error
		tta, err = g.timeToThreshold(pd, tempK, limitK, horizon)
		if err != nil {
			return
		}
	}
	if tta > g.cfg.HorizonS {
		return // violation is distant; act next time it is imminent
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
	if certain {
		// DecideAbove certifies a tick only where Analyze succeeds, so
		// the error is always nil.
		an, _ = g.analyze(pd)
	}
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventMigrate,
		PID:             pid,
		PredictedFixedK: an.StableTempK,
		TimeToLimitS:    tta,
	})
}
