package stability

import (
	"math"
	"testing"
	"testing/quick"
)

func odroid() Params { return DefaultOdroidParams() }

func TestValidate(t *testing.T) {
	if err := odroid().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{},
		{AmbientK: 300},
		{AmbientK: 300, ResistanceKPerW: 7},
		{AmbientK: 300, ResistanceKPerW: 7, CapacitanceJPerK: 20, LeakScale: -1, ActivationK: 1200},
		{AmbientK: 300, ResistanceKPerW: 7, CapacitanceJPerK: 20, LeakScale: 1e-3, ActivationK: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestAuxInverseOfTemp(t *testing.T) {
	p := odroid()
	for _, temp := range []float64{280, 320, 400, 600} {
		if got := p.Temp(p.ActivationK / temp); math.Abs(got-temp) > 1e-9 {
			t.Errorf("Temp(Q/%v) = %v", temp, got)
		}
	}
}

// ψ must be strictly concave: its second difference is negative everywhere.
func TestPsiConcave(t *testing.T) {
	p := odroid()
	for _, pd := range []float64{0, 2, 5.5, 8, 20} {
		for theta := 0.5; theta < 8; theta += 0.25 {
			h := 1e-4
			second := p.Psi(theta+h, pd) - 2*p.Psi(theta, pd) + p.Psi(theta-h, pd)
			if second >= 0 {
				t.Fatalf("ψ not concave at θ=%v Pd=%v (D2=%v)", theta, pd, second)
			}
		}
	}
}

// The paper's Figure 7: two fixed points at 2 W, critical near 5.5 W,
// none at 8 W.
func TestFigure7Structure(t *testing.T) {
	p := odroid()

	a2, err := p.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Class != Stable {
		t.Fatalf("2 W class = %v, want stable", a2.Class)
	}
	if !(a2.StableTheta > a2.UnstableTheta) {
		t.Errorf("stable θ %v should exceed unstable θ %v", a2.StableTheta, a2.UnstableTheta)
	}
	// Stable fixed point is the LOWER temperature.
	if !(a2.StableTempK < a2.UnstableTempK) {
		t.Errorf("stable T %v should be below unstable T %v", a2.StableTempK, a2.UnstableTempK)
	}

	a8, err := p.Analyze(8)
	if err != nil {
		t.Fatal(err)
	}
	if a8.Class != Runaway {
		t.Errorf("8 W class = %v, want runaway", a8.Class)
	}
	if a8.PeakValue >= 0 {
		t.Errorf("8 W peak ψ = %v, want negative", a8.PeakValue)
	}
}

func TestCriticalPowerNear5p5W(t *testing.T) {
	p := odroid()
	pc, err := p.CriticalPower()
	if err != nil {
		t.Fatal(err)
	}
	if pc < 5.3 || pc > 5.7 {
		t.Errorf("critical power = %v W, want ≈5.5 W as in Figure 7b", pc)
	}
	// Just below critical: stable; just above: runaway.
	below, err := p.Analyze(pc - 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if below.Class != Stable {
		t.Errorf("class below critical = %v", below.Class)
	}
	above, err := p.Analyze(pc + 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if above.Class != Runaway {
		t.Errorf("class above critical = %v", above.Class)
	}
}

func TestRootsAreActualRootsProperty(t *testing.T) {
	p := odroid()
	f := func(pdDeciW uint8) bool {
		pd := float64(pdDeciW%55) / 10 // 0..5.4 W, stable region
		an, err := p.Analyze(pd)
		if err != nil || an.Class != Stable {
			return err == nil // non-stable classes have no roots to check
		}
		_, b := p.coeffs(pd)
		tol := 1e-6 * b
		return math.Abs(p.Psi(an.StableTheta, pd)) < tol &&
			math.Abs(p.Psi(an.UnstableTheta, pd)) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateTempIncreasingInPower(t *testing.T) {
	p := odroid()
	prev := 0.0
	for pd := 0.5; pd <= 5.0; pd += 0.5 {
		temp, err := p.SteadyStateTemp(pd)
		if err != nil {
			t.Fatalf("Pd=%v: %v", pd, err)
		}
		if temp <= prev {
			t.Errorf("steady temp %v at %v W not increasing (prev %v)", temp, pd, prev)
		}
		prev = temp
	}
}

func TestSteadyStateTempAboveAmbient(t *testing.T) {
	p := odroid()
	temp, err := p.SteadyStateTemp(1)
	if err != nil {
		t.Fatal(err)
	}
	if temp <= p.AmbientK {
		t.Errorf("steady temp %v must exceed ambient %v", temp, p.AmbientK)
	}
}

func TestSteadyStateTempRunawayError(t *testing.T) {
	p := odroid()
	if _, err := p.SteadyStateTemp(8); err == nil {
		t.Error("expected runaway error at 8 W")
	}
}

func TestNoLeakageSingleFixedPoint(t *testing.T) {
	p := odroid()
	p.LeakScale = 0
	an, err := p.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	if an.Class != Stable {
		t.Fatalf("class = %v", an.Class)
	}
	want := p.AmbientK + p.ResistanceKPerW*2
	if math.Abs(an.StableTempK-want) > 1e-6 {
		t.Errorf("no-leak steady = %v, want Ta+R·Pd = %v", an.StableTempK, want)
	}
	pc, err := p.CriticalPower()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pc, 1) {
		t.Errorf("no-leak critical power = %v, want +Inf", pc)
	}
}

func TestAnalyzeRejectsNegativePower(t *testing.T) {
	if _, err := odroid().Analyze(-1); err == nil {
		t.Error("expected error for negative power")
	}
	if _, err := odroid().Analyze(math.NaN()); err == nil {
		t.Error("expected error for NaN power")
	}
}

func TestTimeToFixedPointBasics(t *testing.T) {
	p := odroid()
	an, err := p.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	// Already at the fixed point: zero time.
	dt, err := p.TimeToFixedPoint(2, an.StableTempK, 0.5, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if dt != 0 {
		t.Errorf("time from fixed point = %v, want 0", dt)
	}
	// From ambient: positive finite time.
	dt, err = p.TimeToFixedPoint(2, p.AmbientK, 0.5, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(dt, 1) || dt <= 0 {
		t.Errorf("time from ambient = %v, want positive finite", dt)
	}
}

func TestTimeToFixedPointRunawayIsInf(t *testing.T) {
	p := odroid()
	dt, err := p.TimeToFixedPoint(8, p.AmbientK, 0.5, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dt, 1) {
		t.Errorf("runaway time = %v, want +Inf", dt)
	}
}

func TestTimeToFixedPointMonotoneInDistance(t *testing.T) {
	p := odroid()
	near, err := p.TimeToFixedPoint(2, p.AmbientK+30, 0.5, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	far, err := p.TimeToFixedPoint(2, p.AmbientK, 0.5, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if !(far > near) {
		t.Errorf("farther start should take longer: near=%v far=%v", near, far)
	}
}

func TestTimeToThreshold(t *testing.T) {
	p := odroid()
	an, err := p.Analyze(3)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold below the fixed point is reached in finite time.
	th := p.AmbientK + 0.8*(an.StableTempK-p.AmbientK)
	dt, err := p.TimeToThreshold(3, p.AmbientK, th, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(dt, 1) || dt <= 0 {
		t.Errorf("time to sub-fixed-point threshold = %v", dt)
	}
	// Threshold above the fixed point is never reached.
	dt, err = p.TimeToThreshold(3, p.AmbientK, an.StableTempK+5, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dt, 1) {
		t.Errorf("time past fixed point = %v, want +Inf", dt)
	}
}

func TestTimeToThresholdValidation(t *testing.T) {
	p := odroid()
	if _, err := p.TimeToThreshold(2, -1, 300, 10); err == nil {
		t.Error("expected error for negative start temp")
	}
	if _, err := p.TimeToThreshold(2, 300, 310, 0); err == nil {
		t.Error("expected error for zero horizon")
	}
}

// Simulated trajectories respect the fixed-point structure: starting
// below the unstable point converges to the stable point; starting above
// it runs away.
func TestTrajectoryBasins(t *testing.T) {
	p := odroid()
	an, err := p.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	// Start midway between ambient and the unstable temperature.
	start := 0.5 * (an.StableTempK + an.UnstableTempK)
	dt, err := p.TimeToFixedPoint(2, start, 0.25, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(dt, 1) {
		t.Error("start inside basin should converge")
	}
	// Start above the unstable temperature: diverges, so the trajectory
	// reaches a high threshold in finite time.
	hot := an.UnstableTempK + 10
	dt, err = p.TimeToThreshold(2, hot, an.UnstableTempK+200, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(dt, 1) {
		t.Error("start above unstable point should run away")
	}
}

func TestPsiScaledMatchesFigure7Range(t *testing.T) {
	p := odroid()
	// At 2 W the scaled peak should be O(1) positive and the scaled value
	// at θ=2 should be a few units negative, matching the plot's [-4, 2].
	an, err := p.Analyze(2)
	if err != nil {
		t.Fatal(err)
	}
	peak := p.PsiScaled(an.PeakTheta, 2)
	if peak < 0.5 || peak > 4 {
		t.Errorf("scaled peak at 2 W = %v, want O(1)", peak)
	}
	edge := p.PsiScaled(2.0, 2)
	if edge > -1 || edge < -10 {
		t.Errorf("scaled ψ(2) at 2 W = %v, want a few units negative", edge)
	}
}

func TestCriticalPowerUnstableAtZeroError(t *testing.T) {
	p := odroid()
	p.LeakScale = 10 // absurd leakage: unstable even at Pd = 0
	if _, err := p.CriticalPower(); err == nil {
		t.Error("expected error when unstable at zero power")
	}
}

func TestClassString(t *testing.T) {
	if Stable.String() != "stable" || CriticallyStable.String() != "critically-stable" || Runaway.String() != "runaway" {
		t.Error("class strings wrong")
	}
	if Class(42).String() == "" {
		t.Error("unknown class should stringify")
	}
}
