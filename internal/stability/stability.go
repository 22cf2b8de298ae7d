// Package stability implements the paper's power-temperature stability
// analysis (Section IV-A, after Bhat/Gumussoy/Ogras, TECS 2017):
//
// Power and temperature form a positive feedback loop because leakage
// grows with temperature. With a lumped thermal model
//
//	C·dT/dt = Pd + Pleak(T) − (T − Ta)/R,   Pleak(T) = κ·T²·e^(−Q/T)
//
// the steady-state condition can be rewritten in terms of the auxiliary
// temperature θ = Q/T (inversely proportional to absolute temperature)
// as the root of a strictly concave function
//
//	ψ(θ) = Q·θ − a·θ² − b·e^(−θ),   a = Ta + R·Pd,   b = R·κ·Q².
//
// ψ” = −2a − b·e^(−θ) < 0, so ψ has at most two roots: the larger
// θ-root (lower temperature) is the stable fixed point, the smaller
// θ-root (higher temperature) is unstable; beyond it lies thermal
// runaway. When max ψ < 0 there is no fixed point at all and the system
// is unconditionally unstable, as in the paper's Figure 7c.
package stability

import (
	"errors"
	"fmt"
	"math"
)

// Params is the lumped platform model the analysis runs on.
type Params struct {
	// AmbientK is the ambient temperature Ta in Kelvin.
	AmbientK float64
	// ResistanceKPerW is the lumped thermal resistance R to ambient.
	ResistanceKPerW float64
	// CapacitanceJPerK is the lumped thermal capacitance C (used only by
	// the transient estimates, not the fixed-point structure).
	CapacitanceJPerK float64
	// LeakScale is κ in Pleak = κ·T²·e^(−Q/T), in W/K².
	LeakScale float64
	// ActivationK is the leakage activation temperature Q in Kelvin.
	ActivationK float64
	// PlotScale scales ψ for presentation; the paper's Figure 7 uses a
	// normalized axis. Zero means the DefaultPlotScale.
	PlotScale float64

	// pdForTransient carries the dynamic power into the ODE integrator;
	// the Time* methods set it on a value copy before integrating.
	pdForTransient float64
}

// DefaultPlotScale reproduces the y-axis range of the paper's Figure 7
// for the default Odroid parameters.
const DefaultPlotScale = 0.01

// DefaultOdroidParams returns lumped parameters calibrated so that, as
// in the paper's Figure 7, the system has two fixed points at 2 W, is
// critically stable near 5.5 W, and has no fixed points at 8 W.
func DefaultOdroidParams() Params {
	return Params{
		AmbientK:         300,
		ResistanceKPerW:  7,
		CapacitanceJPerK: 20,
		LeakScale:        1.1523e-3,
		ActivationK:      1200,
		PlotScale:        DefaultPlotScale,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case !(p.AmbientK > 0):
		return fmt.Errorf("stability: ambient must be positive Kelvin, got %v", p.AmbientK)
	case !(p.ResistanceKPerW > 0):
		return fmt.Errorf("stability: thermal resistance must be positive, got %v", p.ResistanceKPerW)
	case !(p.CapacitanceJPerK > 0):
		return fmt.Errorf("stability: thermal capacitance must be positive, got %v", p.CapacitanceJPerK)
	case p.LeakScale < 0 || math.IsNaN(p.LeakScale):
		return fmt.Errorf("stability: leakage scale must be >= 0, got %v", p.LeakScale)
	case !(p.ActivationK > 0):
		return fmt.Errorf("stability: activation temperature must be positive, got %v", p.ActivationK)
	}
	return nil
}

func (p Params) plotScale() float64 {
	if p.PlotScale == 0 {
		return DefaultPlotScale
	}
	return p.PlotScale
}

// Leakage returns Pleak(T) = κ·T²·e^(−Q/T) in watts.
func (p Params) Leakage(tempK float64) float64 {
	if tempK <= 0 {
		return 0
	}
	return p.LeakScale * tempK * tempK * math.Exp(-p.ActivationK/tempK)
}

// Temp converts an auxiliary temperature θ = Q/T back to Kelvin.
func (p Params) Temp(theta float64) float64 { return p.ActivationK / theta }

// coeffs returns a = Ta + R·Pd and b = R·κ·Q² for dynamic power pd.
func (p Params) coeffs(pdW float64) (a, b float64) {
	a = p.AmbientK + p.ResistanceKPerW*pdW
	b = p.ResistanceKPerW * p.LeakScale * p.ActivationK * p.ActivationK
	return a, b
}

// Psi evaluates the raw (unscaled) fixed-point function ψ(θ) for dynamic
// power pd.
func (p Params) Psi(theta, pdW float64) float64 {
	a, b := p.coeffs(pdW)
	return p.ActivationK*theta - a*theta*theta - b*math.Exp(-theta)
}

// PsiScaled is Psi multiplied by the presentation scale; it reproduces
// the y-axis of the paper's Figure 7.
func (p Params) PsiScaled(theta, pdW float64) float64 {
	return p.Psi(theta, pdW) * p.plotScale()
}

// PsiPrime evaluates dψ/dθ. It is strictly decreasing (ψ is concave),
// so its unique root is the maximizer of ψ.
func (p Params) PsiPrime(theta, pdW float64) float64 {
	a, b := p.coeffs(pdW)
	return p.ActivationK - 2*a*theta + b*math.Exp(-theta)
}

// Class labels the stability of the power-temperature dynamics.
type Class int

// Stability classes in order of increasing severity.
const (
	// Stable: two fixed points exist; trajectories starting below the
	// unstable fixed-point temperature converge to the stable one.
	Stable Class = iota
	// CriticallyStable: the two fixed points have merged (tangent root).
	CriticallyStable
	// Runaway: no fixed points; temperature grows without bound.
	Runaway
)

// String returns a human-readable class name.
func (c Class) String() string {
	switch c {
	case Stable:
		return "stable"
	case CriticallyStable:
		return "critically-stable"
	case Runaway:
		return "runaway"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Analysis is the result of analyzing one dynamic-power operating point.
type Analysis struct {
	// Class is the stability classification.
	Class Class
	// PdW is the dynamic power analyzed.
	PdW float64
	// PeakTheta maximizes ψ; PeakValue = ψ(PeakTheta) (unscaled).
	PeakTheta, PeakValue float64
	// StableTheta/UnstableTheta are the θ roots (0 when absent). The
	// stable root is the larger θ (lower temperature).
	StableTheta, UnstableTheta float64
	// StableTempK/UnstableTempK are the corresponding temperatures in
	// Kelvin (0 when absent).
	StableTempK, UnstableTempK float64
}

// criticalTol decides when the peak is close enough to zero to call the
// system critically stable; expressed relative to b.
const criticalTol = 1e-6

// Analyze classifies the dynamics at dynamic power pdW and locates the
// fixed points.
func (p Params) Analyze(pdW float64) (Analysis, error) {
	if err := p.Validate(); err != nil {
		return Analysis{}, err
	}
	if pdW < 0 || math.IsNaN(pdW) {
		return Analysis{}, fmt.Errorf("stability: dynamic power must be >= 0, got %v", pdW)
	}
	a, b := p.coeffs(pdW)
	if b == 0 {
		// No leakage feedback: single trivially stable fixed point at
		// T = Ta + R·Pd, i.e. θ = Q/(Ta+R·Pd) = Q/a.
		th := p.ActivationK / a
		return Analysis{
			Class:       Stable,
			PdW:         pdW,
			PeakTheta:   th,
			PeakValue:   p.Psi(th, pdW),
			StableTheta: th,
			StableTempK: a,
		}, nil
	}

	// ψ' is strictly decreasing; bracket its root. ψ'(0) = Q + b > 0.
	// For large θ, ψ' → Q − 2aθ < 0; θ = Q/a makes ψ' = −Q + b·e^(−Q/a),
	// not guaranteed negative, so grow the bracket geometrically.
	lo, hi := 0.0, p.ActivationK/a
	for p.PsiPrime(hi, pdW) > 0 {
		hi *= 2
		if hi > 1e9 {
			return Analysis{}, errors.New("stability: failed to bracket ψ' root")
		}
	}
	peak := bisect(func(t float64) float64 { return p.PsiPrime(t, pdW) }, lo, hi)
	peakVal := p.Psi(peak, pdW)
	res := Analysis{PdW: pdW, PeakTheta: peak, PeakValue: peakVal}

	switch {
	case peakVal > criticalTol*b:
		res.Class = Stable
		// Lower root in (ε, peak): ψ(0+) = −b < 0, ψ(peak) > 0.
		res.UnstableTheta = bisect(func(t float64) float64 { return p.Psi(t, pdW) }, 1e-9, peak)
		// Upper root in (peak, Q/a]: ψ(Q/a) = −b·e^(−Q/a) < 0. The upper
		// root is always < Q/a since ψ(θ) ≥ 0 needs Qθ ≥ aθ².
		upperHi := p.ActivationK / a
		if upperHi <= peak {
			upperHi = peak * 2
		}
		res.StableTheta = bisect(func(t float64) float64 { return -p.Psi(t, pdW) }, peak, upperHi)
		res.UnstableTempK = p.Temp(res.UnstableTheta)
		res.StableTempK = p.Temp(res.StableTheta)
	case peakVal >= -criticalTol*b:
		res.Class = CriticallyStable
		res.StableTheta = peak
		res.UnstableTheta = peak
		res.StableTempK = p.Temp(peak)
		res.UnstableTempK = res.StableTempK
	default:
		res.Class = Runaway
	}
	return res, nil
}

// bisect finds x in [lo, hi] with f(x) = 0 assuming f(lo) and f(hi)
// bracket a sign change with f(lo) > 0 ≥ f(hi) or f(lo) < 0 ≤ f(hi).
func bisect(f func(float64) float64, lo, hi float64) float64 {
	flo := f(lo)
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if fm == 0 || hi-lo < 1e-13*(1+math.Abs(mid)) {
			return mid
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// CriticalPower returns the dynamic power at which the two fixed points
// merge (max ψ = 0). Above it the system is in thermal runaway for any
// initial condition. For the default Odroid parameters this is ≈5.5 W,
// matching the paper's Figure 7b.
func (p Params) CriticalPower() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.LeakScale == 0 {
		return math.Inf(1), nil
	}
	peakAt := func(pd float64) float64 {
		an, err := p.Analyze(pd)
		if err != nil {
			return math.NaN()
		}
		return an.PeakValue
	}
	lo, hi := 0.0, 1.0
	if peakAt(lo) < 0 {
		return 0, errors.New("stability: system is unstable even at zero dynamic power")
	}
	for peakAt(hi) > 0 {
		hi *= 2
		if hi > 1e6 {
			return 0, errors.New("stability: no finite critical power found")
		}
	}
	for i := 0; i < 100; i++ {
		mid := 0.5 * (lo + hi)
		if peakAt(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// SteadyStateTemp returns the stable fixed-point temperature (Kelvin)
// for dynamic power pdW, or an error when the system has no stable
// fixed point.
func (p Params) SteadyStateTemp(pdW float64) (float64, error) {
	an, err := p.Analyze(pdW)
	if err != nil {
		return 0, err
	}
	if an.Class == Runaway {
		return 0, fmt.Errorf("stability: no fixed point at Pd=%.3g W (thermal runaway)", pdW)
	}
	return an.StableTempK, nil
}

// dTdt evaluates the lumped dynamics at temperature t for power pd.
func (p Params) dTdt(t, pdW float64) float64 {
	return (pdW + p.Leakage(t) - (t-p.AmbientK)/p.ResistanceKPerW) / p.CapacitanceJPerK
}

// TimeToTemp integrates the lumped ODE from fromK until the temperature
// first reaches targetK, returning the elapsed time in seconds. If the
// trajectory can never reach targetK (it converges to a fixed point
// short of it), it returns +Inf. horizonS caps the integration.
func (p Params) TimeToTemp(fromK, targetK, horizonS float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if fromK <= 0 || targetK <= 0 {
		return 0, fmt.Errorf("stability: temperatures must be positive Kelvin (from=%v target=%v)", fromK, targetK)
	}
	if horizonS <= 0 {
		return 0, fmt.Errorf("stability: horizon must be positive, got %v", horizonS)
	}
	rising := targetK >= fromK
	if fromK == targetK {
		return 0, nil
	}
	t := fromK
	// RK4 with a step well below the thermal time constant.
	dt := p.ResistanceKPerW * p.CapacitanceJPerK / 200
	if dt > horizonS/10 {
		dt = horizonS / 10
	}
	elapsed := 0.0
	for elapsed < horizonS {
		k1 := p.dTdt(t, p.pdForTransient)
		k2 := p.dTdt(t+0.5*dt*k1, p.pdForTransient)
		k3 := p.dTdt(t+0.5*dt*k2, p.pdForTransient)
		k4 := p.dTdt(t+dt*k3, p.pdForTransient)
		next := t + dt/6*(k1+2*k2+2*k3+k4)
		if rising && next >= targetK || !rising && next <= targetK {
			// Linear interpolation within the step for sub-step accuracy.
			frac := 1.0
			if next != t {
				frac = (targetK - t) / (next - t)
			}
			return elapsed + frac*dt, nil
		}
		// Detect stall: derivative vanished short of the target.
		if math.Abs(next-t) < 1e-12 {
			return math.Inf(1), nil
		}
		t = next
		elapsed += dt
	}
	return math.Inf(1), nil
}

// TimeToFixedPoint estimates how long the system takes to move from
// fromK to within tolK of the stable fixed-point temperature under
// constant dynamic power pdW. It returns +Inf when the system is in
// runaway or when the fixed point is not reached within horizonS.
//
// The application-aware governor uses this estimate to decide whether a
// predicted violation is imminent (Section IV-B).
func (p Params) TimeToFixedPoint(pdW, fromK, tolK, horizonS float64) (float64, error) {
	an, err := p.Analyze(pdW)
	if err != nil {
		return 0, err
	}
	if an.Class == Runaway {
		return math.Inf(1), nil
	}
	fix := an.StableTempK
	if math.Abs(fromK-fix) <= tolK {
		return 0, nil
	}
	target := fix - tolK
	if fromK > fix {
		target = fix + tolK
	}
	q := p
	q.pdForTransient = pdW
	return q.TimeToTemp(fromK, target, horizonS)
}

// TimeToThreshold estimates how long until the temperature, starting at
// fromK under constant dynamic power pdW, first crosses thresholdK. It
// returns +Inf if the trajectory never reaches the threshold (e.g. the
// stable fixed point lies below it) within horizonS.
func (p Params) TimeToThreshold(pdW, fromK, thresholdK, horizonS float64) (float64, error) {
	q := p
	q.pdForTransient = pdW
	return q.TimeToTemp(fromK, thresholdK, horizonS)
}
