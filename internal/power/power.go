// Package power implements the platform power model: per-domain dynamic
// power from utilization, voltage and frequency; temperature-dependent
// subthreshold-style leakage; per-rail accounting matching the
// Odroid-XU3's current sensors (little, big, memory, GPU); and the
// power-to-frequency inversion used by the IPA thermal governor.
package power

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/snapbin"
)

// LeakageParams characterizes temperature-dependent leakage of one
// component: P_leak = K * V * T^2 * exp(-Q/T), the standard subthreshold
// form the paper's stability analysis (via ref [2]) relies on.
type LeakageParams struct {
	// K is the leakage scale factor (W / (V·K²)).
	K float64
	// Q is the activation temperature in Kelvin.
	Q float64
}

// Power returns the leakage power at supply voltage v (volts) and
// temperature t (Kelvin).
func (l LeakageParams) Power(v, t float64) float64 {
	return l.PowerExp(v, t, math.Exp(l.Exponent(t)))
}

// Exponent returns -Q/t, the exponent of the leakage's Arrhenius
// factor at temperature t (Kelvin). Callers that evaluate many
// factors at once stage exponents and exponentiate them together with
// ExpInto.
func (l LeakageParams) Exponent(t float64) float64 { return -l.Q / t }

// PowerExp returns the leakage power at supply voltage v and
// temperature t given e = exp(Exponent(t)); Power(v, t) is
// PowerExp(v, t, math.Exp(Exponent(t))) bit for bit. The explicit
// conversion rounds the product even where PowerExp is inlined, so
// no compiler target fuses it into the caller's sum.
func (l LeakageParams) PowerExp(v, t, e float64) float64 {
	if t <= 0 {
		return 0
	}
	return float64(l.K * v * t * t * e)
}

// DomainModel computes power for one frequency domain (cluster or GPU).
type DomainModel struct {
	// Name matches the dvfs.Domain it models.
	Name string
	// CeffF is the effective switched capacitance in farads; dynamic
	// power is CeffF * V^2 * f * utilization.
	CeffF float64
	// IdleW is the fixed cost of keeping the domain powered (clock tree,
	// uncore) independent of utilization.
	IdleW float64
	// Leakage is the temperature-dependent component.
	Leakage LeakageParams
}

// Validate reports configuration errors.
func (m *DomainModel) Validate() error {
	if m.CeffF <= 0 || math.IsNaN(m.CeffF) {
		return fmt.Errorf("power: domain %q Ceff must be positive, got %v", m.Name, m.CeffF)
	}
	if m.IdleW < 0 {
		return fmt.Errorf("power: domain %q idle power must be >= 0", m.Name)
	}
	if m.Leakage.K < 0 || m.Leakage.Q <= 0 {
		return fmt.Errorf("power: domain %q leakage params invalid (K=%v Q=%v)", m.Name, m.Leakage.K, m.Leakage.Q)
	}
	return nil
}

// Dynamic returns the utilization-dependent switching power at the given
// OPP. Utilization is clamped to [0, 1] per core and summed by the
// caller; util here is the domain-aggregate utilization in "cores"
// (0..numCores).
func (m *DomainModel) Dynamic(opp dvfs.OPP, util float64) float64 {
	if util < 0 {
		util = 0
	}
	return m.CeffF * opp.VoltageV * opp.VoltageV * float64(opp.FreqHz) * util
}

// Total returns dynamic + idle + leakage power at the OPP, aggregate
// utilization and temperature (Kelvin).
func (m *DomainModel) Total(opp dvfs.OPP, util, tempK float64) float64 {
	return m.totalExp(opp, util, tempK, math.Exp(m.Leakage.Exponent(tempK)))
}

// totalExp is Total given the leakage factor e = exp(Exponent(tempK)).
func (m *DomainModel) totalExp(opp dvfs.OPP, util, tempK, e float64) float64 {
	return m.Dynamic(opp, util) + m.IdleW + m.Leakage.PowerExp(opp.VoltageV, tempK, e)
}

// MaxFreqWithinBudget returns the highest OPP in table whose estimated
// total power at the given utilization and temperature fits budgetW.
// If even the lowest OPP exceeds the budget, the lowest OPP is returned
// (a domain cannot be clocked below its table). This is the inversion
// the IPA governor performs when converting granted power to frequency.
// The leakage factor depends on temperature alone, so it is evaluated
// once for the whole table.
func (m *DomainModel) MaxFreqWithinBudget(table *dvfs.Table, util, tempK, budgetW float64) dvfs.OPP {
	best := table.Min()
	e := math.Exp(m.Leakage.Exponent(tempK))
	for i := 0; i < table.Len(); i++ {
		opp := table.At(i)
		if m.totalExp(opp, util, tempK, e) <= budgetW {
			best = opp
		}
	}
	return best
}

// Rail identifies one measurable power rail. The Odroid-XU3 exposes
// exactly these four current sensors; the paper's Figure 9 pie charts
// are shares of these rails.
type Rail int

// Rail values in the order the paper reports them.
const (
	RailLittle Rail = iota
	RailBig
	RailMem
	RailGPU
	numRails
)

// String returns the rail name used in traces and figures.
func (r Rail) String() string {
	switch r {
	case RailLittle:
		return "little"
	case RailBig:
		return "big"
	case RailMem:
		return "mem"
	case RailGPU:
		return "gpu"
	default:
		return fmt.Sprintf("rail(%d)", int(r))
	}
}

// NumRails is the number of measurable rails; Sample.W and the sim
// layer's flat per-rail buffers are indexed by Rail in [0, NumRails).
const NumRails = int(numRails)

// Rails lists all rails in reporting order. It allocates a fresh slice;
// hot loops should iterate Rail indices or cache the result instead.
func Rails() []Rail { return []Rail{RailLittle, RailBig, RailMem, RailGPU} }

// Sample is one instantaneous power reading across rails.
type Sample struct {
	// TimeS is the simulation time of the reading.
	TimeS float64
	// W holds per-rail power in watts.
	W [numRails]float64
}

// Total returns the platform total power of the sample.
func (s Sample) Total() float64 {
	t := 0.0
	for _, w := range s.W {
		t += w
	}
	return t
}

// Meter integrates per-rail energy over time; it is the accounting
// behind both the DAQ model and the Figure 9 energy-share pies.
type Meter struct {
	energyJ [numRails]float64
	elapsed float64
	last    Sample
	haveAny bool
}

// Record integrates the sample over dt seconds (rectangle rule, matching
// the simulator's fixed step).
func (m *Meter) Record(s Sample, dt float64) error {
	if dt <= 0 || math.IsNaN(dt) {
		return fmt.Errorf("power: meter dt must be positive, got %v", dt)
	}
	for r, w := range s.W {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("power: negative or NaN power %v on rail %s", w, Rail(r))
		}
		m.energyJ[r] += w * dt
	}
	m.elapsed += dt
	m.last = s
	m.haveAny = true
	return nil
}

// EnergyJ returns the accumulated energy of one rail in joules.
func (m *Meter) EnergyJ(r Rail) float64 { return m.energyJ[r] }

// TotalEnergyJ returns the total accumulated energy in joules.
func (m *Meter) TotalEnergyJ() float64 {
	t := 0.0
	for _, e := range m.energyJ {
		t += e
	}
	return t
}

// Elapsed returns the integrated duration in seconds.
func (m *Meter) Elapsed() float64 { return m.elapsed }

// AveragePowerW returns total energy / elapsed time (0 when empty).
func (m *Meter) AveragePowerW() float64 {
	if m.elapsed == 0 {
		return 0
	}
	return m.TotalEnergyJ() / m.elapsed
}

// Share returns rail r's fraction of total energy (0 when empty).
func (m *Meter) Share(r Rail) float64 {
	t := m.TotalEnergyJ()
	if t == 0 {
		return 0
	}
	return m.energyJ[r] / t
}

// SharesInto fills dst — indexed by Rail, len >= NumRails — with every
// rail's fraction of total energy (all zeros when nothing was
// recorded). It computes the total once and allocates nothing: the
// per-sample counterpart of Shares for callers polling the meter in a
// loop.
func (m *Meter) SharesInto(dst []float64) error {
	if len(dst) < NumRails {
		return fmt.Errorf("power: got %d share slots for %d rails", len(dst), NumRails)
	}
	t := m.TotalEnergyJ()
	for r := 0; r < NumRails; r++ {
		if t == 0 {
			dst[r] = 0
		} else {
			dst[r] = m.energyJ[r] / t
		}
	}
	return nil
}

// Shares returns every rail's fraction of total energy as a map view
// built on SharesInto.
func (m *Meter) Shares() map[Rail]float64 {
	var flat [numRails]float64
	_ = m.SharesInto(flat[:]) // len is statically sufficient
	out := make(map[Rail]float64, int(numRails))
	for r, v := range flat {
		out[Rail(r)] = v
	}
	return out
}

// Last returns the most recent sample recorded (zero Sample when empty).
func (m *Meter) Last() Sample { return m.last }

// Reset clears all accumulated energy and elapsed time.
func (m *Meter) Reset() { *m = Meter{} }

// SaveState serializes the meter: per-rail energy, elapsed time, and
// the last sample.
func (m *Meter) SaveState(w *snapbin.Writer) {
	for _, e := range m.energyJ {
		w.PutF64(e)
	}
	w.PutF64(m.elapsed)
	w.PutF64(m.last.TimeS)
	for _, p := range m.last.W {
		w.PutF64(p)
	}
	w.PutBool(m.haveAny)
}

// LoadState restores state saved by SaveState.
func (m *Meter) LoadState(r *snapbin.Reader) error {
	var next Meter
	for i := range next.energyJ {
		next.energyJ[i] = r.F64()
	}
	next.elapsed = r.F64()
	next.last.TimeS = r.F64()
	for i := range next.last.W {
		next.last.W[i] = r.F64()
	}
	next.haveAny = r.Bool()
	if err := r.Err(); err != nil {
		return fmt.Errorf("power: meter: %w", err)
	}
	*m = next
	return nil
}
