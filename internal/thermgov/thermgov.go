// Package thermgov implements the thermal governors the paper compares
// against: the disabled governor (the paper's "without throttling"
// baseline), the Linux step-wise trip-point governor, and a simplified
// ARM Intelligent Power Allocation (IPA) governor — the combination the
// Odroid's Linux 3.10 kernel ships ("thermal trip points and ARM
// intelligent power allocation", Section IV-C).
//
// Thermal governors act by imposing frequency caps on dvfs domains;
// the cpufreq governors keep requesting frequencies underneath those
// caps. That separation reproduces the paper's observation that the two
// governor kinds can fight each other.
package thermgov

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// DomainState is the per-domain view a thermal governor controls with.
type DomainState struct {
	// Domain is the frequency domain to cap.
	Domain *dvfs.Domain
	// Model converts power budgets to frequencies (IPA needs it).
	Model *power.DomainModel
	// UtilCores is the domain's recent busy capacity in cores.
	UtilCores float64
	// TempK is the domain's sensor temperature in Kelvin.
	TempK float64
	// Cores is the physical core count; OnlineCores the current count.
	Cores, OnlineCores int
	// SetOnlineCores, when non-nil, lets the governor hot-plug cores —
	// the last-resort action of Section I ("governors resort to powering
	// the cores off"). Implementations clamp to [1, Cores].
	SetOnlineCores func(n int)
}

// Governor is a thermal management policy.
type Governor interface {
	// Name identifies the governor.
	Name() string
	// IntervalS is the polling period in seconds.
	IntervalS() float64
	// Control inspects temperatures and adjusts domain caps. maxTempK is
	// the platform sensor reading; states carry per-domain zone detail.
	// Governors act on the hottest of all of these, like the kernel's
	// per-zone thermal framework.
	//
	// The caller owns states and reuses it between ticks, overwriting
	// the dynamic fields (UtilCores, TempK, OnlineCores) in place:
	// implementations must not retain the slice or its elements past
	// the call — copy anything kept as history.
	Control(nowS, maxTempK float64, states []DomainState)
}

// hottest returns the maximum of the platform sensor and every domain
// zone temperature.
func hottest(maxTempK float64, states []DomainState) float64 {
	h := maxTempK
	for _, s := range states {
		if s.TempK > h {
			h = s.TempK
		}
	}
	return h
}

// None is the disabled thermal governor: it removes any caps and never
// throttles. It is the paper's "without throttling" experimental arm.
type None struct{}

// Name implements Governor.
func (None) Name() string { return "none" }

// IntervalS implements Governor.
func (None) IntervalS() float64 { return 0.1 }

// Control implements Governor.
func (None) Control(nowS, maxTempK float64, states []DomainState) {
	for _, s := range states {
		s.Domain.SetCap(0)
	}
}

// StepWiseConfig parameterizes the step-wise governor.
type StepWiseConfig struct {
	// TripK is the passive trip temperature in Kelvin: above it the
	// governor steps frequencies down one OPP per poll.
	TripK float64
	// HysteresisK is how far below the trip the temperature must fall
	// before caps step back up.
	HysteresisK float64
	// CriticalK forces every domain to its minimum OPP immediately
	// (0 disables the critical trip).
	CriticalK float64
	// IntervalS is the polling period (Linux polls passive trips every
	// 100 ms by default).
	IntervalS float64
}

// StepWise is the Linux step_wise thermal governor: while any sensor is
// above the passive trip it lowers every domain's frequency cap by one
// OPP per poll; once the temperature falls below trip minus hysteresis
// it raises caps one OPP per poll until they clear. Throttling the whole
// system — every domain, not just the culprit — is exactly the behavior
// the paper's Section III criticizes.
type StepWise struct {
	cfg StepWiseConfig
}

// NewStepWise validates cfg and builds the governor.
func NewStepWise(cfg StepWiseConfig) (*StepWise, error) {
	if cfg.TripK <= 0 || math.IsNaN(cfg.TripK) {
		return nil, fmt.Errorf("thermgov: trip temperature must be positive Kelvin, got %v", cfg.TripK)
	}
	if cfg.HysteresisK < 0 || math.IsNaN(cfg.HysteresisK) {
		return nil, fmt.Errorf("thermgov: hysteresis must be >= 0, got %v", cfg.HysteresisK)
	}
	if cfg.CriticalK != 0 && cfg.CriticalK <= cfg.TripK {
		return nil, fmt.Errorf("thermgov: critical trip %v must exceed passive trip %v", cfg.CriticalK, cfg.TripK)
	}
	if cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("thermgov: interval must be positive, got %v", cfg.IntervalS)
	}
	return &StepWise{cfg: cfg}, nil
}

// Name implements Governor.
func (*StepWise) Name() string { return "step-wise" }

// IntervalS implements Governor.
func (g *StepWise) IntervalS() float64 { return g.cfg.IntervalS }

// Control implements Governor.
func (g *StepWise) Control(nowS, maxTempK float64, states []DomainState) {
	maxTempK = hottest(maxTempK, states)
	if g.cfg.CriticalK != 0 && maxTempK >= g.cfg.CriticalK {
		// Critical trip: minimum frequency everywhere and power cores
		// off down to one per cluster, the paper's extreme case.
		for _, s := range states {
			s.Domain.SetCap(s.Domain.Table().Min().FreqHz)
			if s.SetOnlineCores != nil {
				s.SetOnlineCores(1)
			}
		}
		return
	}
	switch {
	case maxTempK > g.cfg.TripK:
		for _, s := range states {
			stepDown(s.Domain)
		}
	case maxTempK < g.cfg.TripK-g.cfg.HysteresisK:
		for _, s := range states {
			// Recovery order mirrors the kernel: cores come back online
			// before frequency caps lift.
			if s.SetOnlineCores != nil && s.OnlineCores < s.Cores {
				s.SetOnlineCores(s.OnlineCores + 1)
				continue
			}
			stepUp(s.Domain)
		}
	}
	// Inside the hysteresis band: hold current caps.
}

// stepDown lowers the domain cap by one OPP (bounded at table min).
func stepDown(d *dvfs.Domain) {
	table := d.Table()
	cur := d.Cap()
	if cur == 0 {
		cur = table.Max().FreqHz
	}
	i := table.IndexOf(table.Floor(cur).FreqHz)
	if i > 0 {
		i--
	}
	d.SetCap(table.At(i).FreqHz)
}

// stepUp raises the domain cap by one OPP, removing it at table max.
func stepUp(d *dvfs.Domain) {
	cur := d.Cap()
	if cur == 0 {
		return
	}
	table := d.Table()
	i := table.IndexOf(table.Floor(cur).FreqHz)
	if i < 0 {
		i = 0
	}
	if i+1 >= table.Len() {
		d.SetCap(0)
		return
	}
	d.SetCap(table.At(i + 1).FreqHz)
}

// IPAConfig parameterizes the Intelligent Power Allocation governor.
type IPAConfig struct {
	// ControlTempK is the temperature setpoint the PID regulates to.
	ControlTempK float64
	// SustainablePowerW is the power the platform can dissipate at the
	// control temperature — the budget when the error is zero.
	SustainablePowerW float64
	// KPo is the proportional gain applied while under the setpoint
	// (allows boosting); KPu applies while over it (throttles harder).
	// ARM's implementation uses this asymmetric pair.
	KPo, KPu float64
	// KI is the integral gain; the integrator is clamped to avoid windup.
	KI float64
	// IntegralClampW bounds the integral term's contribution.
	IntegralClampW float64
	// IntervalS is the control period (ARM default 100 ms).
	IntervalS float64
	// Weights optionally biases the budget split per domain name, like
	// the weighted allocation of ARM's IPA (a device-tree parameter on
	// real boards; GPUs are commonly favored so graphics QoS survives
	// CPU-driven heat). Missing entries default to 1.
	Weights map[string]float64
}

// IPA is a simplified ARM Intelligent Power Allocation governor: a PID
// loop converts the temperature error into a total power budget, the
// budget is divided among domains proportionally to their requested
// power, and each domain's grant is inverted into a frequency cap
// through its power model.
type IPA struct {
	cfg      IPAConfig
	integral float64
	req      []float64 // reused per-domain request buffer; Control runs every tick
}

// NewIPA validates cfg and builds the governor.
func NewIPA(cfg IPAConfig) (*IPA, error) {
	switch {
	case cfg.ControlTempK <= 0 || math.IsNaN(cfg.ControlTempK):
		return nil, fmt.Errorf("thermgov: IPA control temperature must be positive Kelvin, got %v", cfg.ControlTempK)
	case cfg.SustainablePowerW <= 0:
		return nil, fmt.Errorf("thermgov: IPA sustainable power must be positive, got %v", cfg.SustainablePowerW)
	case cfg.KPo < 0 || cfg.KPu < 0 || cfg.KI < 0:
		return nil, fmt.Errorf("thermgov: IPA gains must be >= 0")
	case cfg.IntegralClampW < 0:
		return nil, fmt.Errorf("thermgov: IPA integral clamp must be >= 0")
	case cfg.IntervalS <= 0:
		return nil, fmt.Errorf("thermgov: IPA interval must be positive, got %v", cfg.IntervalS)
	}
	for name, w := range cfg.Weights {
		if w <= 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("thermgov: IPA weight for %q must be positive, got %v", name, w)
		}
	}
	return &IPA{cfg: cfg}, nil
}

// Name implements Governor.
func (*IPA) Name() string { return "ipa" }

// IntervalS implements Governor.
func (g *IPA) IntervalS() float64 { return g.cfg.IntervalS }

// Budget returns the PID power budget for the given hottest temperature,
// updating the integrator. Exposed for tests and the ablation bench.
func (g *IPA) Budget(maxTempK float64) float64 {
	err := g.cfg.ControlTempK - maxTempK // positive when cool
	kp := g.cfg.KPo
	if err < 0 {
		kp = g.cfg.KPu
	}
	// Integrate only near/over the setpoint so long cool periods don't
	// wind the budget up without bound.
	if err < 5 {
		g.integral += g.cfg.KI * err
		if g.integral > g.cfg.IntegralClampW {
			g.integral = g.cfg.IntegralClampW
		}
		if g.integral < -g.cfg.IntegralClampW {
			g.integral = -g.cfg.IntegralClampW
		}
	}
	budget := g.cfg.SustainablePowerW + kp*err + g.integral
	if budget < 0 {
		budget = 0
	}
	return budget
}

// Control implements Governor: split the budget proportionally to each
// domain's requested power (its power at the maximum OPP under current
// utilization) and cap each domain at the highest OPP within its grant.
func (g *IPA) Control(nowS, maxTempK float64, states []DomainState) {
	budget := g.Budget(hottest(maxTempK, states))
	if len(states) == 0 {
		return
	}
	if cap(g.req) < len(states) {
		g.req = make([]float64, len(states))
	}
	req := g.req[:len(states)]
	for i := range req {
		req[i] = 0
	}
	total := 0.0
	for i, s := range states {
		if s.Model == nil {
			continue
		}
		w := 1.0
		if ww, ok := g.cfg.Weights[s.Domain.Name()]; ok {
			w = ww
		}
		req[i] = w * s.Model.Total(s.Domain.Table().Max(), s.UtilCores, s.TempK)
		total += req[i]
	}
	if total <= 0 {
		for _, s := range states {
			s.Domain.SetCap(0)
		}
		return
	}
	if total <= budget {
		// Everyone fits at maximum: remove caps.
		for _, s := range states {
			s.Domain.SetCap(0)
		}
		return
	}
	for i, s := range states {
		if s.Model == nil {
			continue
		}
		grant := budget * req[i] / total
		opp := s.Model.MaxFreqWithinBudget(s.Domain.Table(), s.UtilCores, s.TempK, grant)
		if opp.FreqHz >= s.Domain.Table().Max().FreqHz {
			s.Domain.SetCap(0)
		} else {
			s.Domain.SetCap(opp.FreqHz)
		}
	}
}
