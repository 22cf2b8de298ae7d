package thermgov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/thermal"
)

// DefaultStepWiseConfig mirrors a typical phone configuration with a
// passive trip well below the junction limit.
func DefaultStepWiseConfig() StepWiseConfig {
	return StepWiseConfig{
		TripK:       273.15 + 70,
		HysteresisK: 3,
		CriticalK:   273.15 + 95,
		IntervalS:   0.1,
	}
}

// DefaultIPAConfig returns gains sized for the Odroid-class platform
// models in this repository.
func DefaultIPAConfig() IPAConfig {
	return IPAConfig{
		ControlTempK:      273.15 + 70,
		SustainablePowerW: 2.5,
		KPo:               0.4,
		KPu:               0.8,
		KI:                0.02,
		IntegralClampW:    1.0,
		IntervalS:         0.1,
	}
}

func gpuTable() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 180e6, VoltageV: 0.80},
		dvfs.OPP{FreqHz: 305e6, VoltageV: 0.85},
		dvfs.OPP{FreqHz: 390e6, VoltageV: 0.90},
		dvfs.OPP{FreqHz: 450e6, VoltageV: 0.95},
		dvfs.OPP{FreqHz: 510e6, VoltageV: 1.00},
		dvfs.OPP{FreqHz: 600e6, VoltageV: 1.075},
	)
}

func testModel() *power.DomainModel {
	return &power.DomainModel{
		Name:    "gpu",
		CeffF:   2e-9,
		IdleW:   0.05,
		Leakage: power.LeakageParams{K: 1e-6, Q: 1000},
	}
}

func domainState(t *testing.T, tempC float64) DomainState {
	t.Helper()
	d, err := dvfs.NewDomain("gpu", gpuTable(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Request(0, d.Table().Max().FreqHz)
	return DomainState{Domain: d, Model: testModel(), UtilCores: 1, TempK: thermal.ToKelvin(tempC)}
}

func TestNoneRemovesCaps(t *testing.T) {
	s := domainState(t, 90)
	s.Domain.SetCap(305e6)
	None{}.Control(0, thermal.ToKelvin(90), []DomainState{s})
	if s.Domain.Cap() != 0 {
		t.Errorf("cap = %d, want removed", s.Domain.Cap())
	}
}

func TestStepWiseValidation(t *testing.T) {
	bad := []StepWiseConfig{
		{TripK: 0, IntervalS: 0.1},
		{TripK: math.NaN(), IntervalS: 0.1},
		{TripK: 340, HysteresisK: -1, IntervalS: 0.1},
		{TripK: 340, CriticalK: 330, IntervalS: 0.1}, // critical below trip
		{TripK: 340, IntervalS: 0},
	}
	for i, cfg := range bad {
		if _, err := NewStepWise(cfg); err == nil {
			t.Errorf("case %d (%+v) should fail", i, cfg)
		}
	}
	if _, err := NewStepWise(DefaultStepWiseConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestStepWiseStepsDownAboveTrip(t *testing.T) {
	g, _ := NewStepWise(DefaultStepWiseConfig())
	s := domainState(t, 75) // above the 70°C trip
	hot := thermal.ToKelvin(75)
	g.Control(0, hot, []DomainState{s})
	if s.Domain.Cap() != 510e6 {
		t.Fatalf("first step: cap = %d, want 510MHz", s.Domain.Cap())
	}
	g.Control(0.1, hot, []DomainState{s})
	if s.Domain.Cap() != 450e6 {
		t.Fatalf("second step: cap = %d, want 450MHz", s.Domain.Cap())
	}
	// Keep stepping; the cap must bottom out at table min, not undershoot.
	for i := 0; i < 10; i++ {
		g.Control(float64(i), hot, []DomainState{s})
	}
	if s.Domain.Cap() != 180e6 {
		t.Errorf("cap = %d, want bottomed at 180MHz", s.Domain.Cap())
	}
}

func TestStepWiseHysteresisHolds(t *testing.T) {
	g, _ := NewStepWise(DefaultStepWiseConfig())
	s := domainState(t, 75)
	g.Control(0, s.TempK, []DomainState{s})
	capAfterThrottle := s.Domain.Cap()
	// Temperature falls to 69°C: inside the hysteresis band [67, 70].
	s.TempK = thermal.ToKelvin(69)
	g.Control(0.1, s.TempK, []DomainState{s})
	if s.Domain.Cap() != capAfterThrottle {
		t.Errorf("cap changed inside hysteresis band: %d", s.Domain.Cap())
	}
	// Below 67°C: step back up and eventually clear.
	s.TempK = thermal.ToKelvin(60)
	g.Control(0.2, s.TempK, []DomainState{s})
	if s.Domain.Cap() != 600e6 {
		t.Errorf("cap = %d, want stepped up to 600MHz", s.Domain.Cap())
	}
	g.Control(0.3, s.TempK, []DomainState{s})
	if s.Domain.Cap() != 0 {
		t.Errorf("cap = %d, want removed at table max", s.Domain.Cap())
	}
}

func TestStepWiseCriticalForcesMin(t *testing.T) {
	g, _ := NewStepWise(DefaultStepWiseConfig())
	s := domainState(t, 96)
	g.Control(0, thermal.ToKelvin(96), []DomainState{s})
	if s.Domain.Cap() != 180e6 {
		t.Errorf("cap = %d, want table min at critical trip", s.Domain.Cap())
	}
}

func TestStepWiseThrottlesAllDomains(t *testing.T) {
	// The step-wise governor's whole-system throttling is the behavior
	// the paper criticizes: every domain is capped even if only one is
	// hot.
	g, _ := NewStepWise(DefaultStepWiseConfig())
	a := domainState(t, 75)
	b := domainState(t, 40) // cool domain still gets throttled
	g.Control(0, thermal.ToKelvin(75), []DomainState{a, b})
	if a.Domain.Cap() == 0 || b.Domain.Cap() == 0 {
		t.Errorf("caps = (%d, %d), want both throttled", a.Domain.Cap(), b.Domain.Cap())
	}
}

func TestIPAValidation(t *testing.T) {
	bad := []IPAConfig{
		{ControlTempK: 0, SustainablePowerW: 1, IntervalS: 0.1},
		{ControlTempK: 340, SustainablePowerW: 0, IntervalS: 0.1},
		{ControlTempK: 340, SustainablePowerW: 1, KPo: -1, IntervalS: 0.1},
		{ControlTempK: 340, SustainablePowerW: 1, IntegralClampW: -1, IntervalS: 0.1},
		{ControlTempK: 340, SustainablePowerW: 1, IntervalS: 0},
	}
	for i, cfg := range bad {
		if _, err := NewIPA(cfg); err == nil {
			t.Errorf("case %d (%+v) should fail", i, cfg)
		}
	}
	if _, err := NewIPA(DefaultIPAConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestIPABudgetTracksError(t *testing.T) {
	cfg := DefaultIPAConfig()
	g, _ := NewIPA(cfg)
	at := func(tempC float64) float64 {
		fresh, _ := NewIPA(cfg)
		return fresh.Budget(thermal.ToKelvin(tempC))
	}
	cool := at(40)
	atSet := at(70)
	hot := at(90)
	if !(cool > atSet && atSet > hot) {
		t.Errorf("budget ordering wrong: cool=%v set=%v hot=%v", cool, atSet, hot)
	}
	if math.Abs(atSet-cfg.SustainablePowerW) > 0.2 {
		t.Errorf("budget at setpoint = %v, want ~sustainable %v", atSet, cfg.SustainablePowerW)
	}
	_ = g
}

func TestIPABudgetNeverNegative(t *testing.T) {
	g, _ := NewIPA(DefaultIPAConfig())
	for tempC := 70.0; tempC < 200; tempC += 10 {
		if b := g.Budget(thermal.ToKelvin(tempC)); b < 0 {
			t.Errorf("budget at %v°C = %v, want >= 0", tempC, b)
		}
	}
}

func TestIPAIntegralClamped(t *testing.T) {
	cfg := DefaultIPAConfig()
	g, _ := NewIPA(cfg)
	// Hold slightly hot for many periods: integral must saturate, so the
	// budget converges instead of diverging.
	var prev float64
	for i := 0; i < 1000; i++ {
		prev = g.Budget(cfg.ControlTempK + 2)
	}
	again := g.Budget(cfg.ControlTempK + 2)
	if math.Abs(again-prev) > 1e-9 {
		t.Errorf("budget still moving after 1000 iterations: %v -> %v", prev, again)
	}
}

func TestIPACapsUnderBudget(t *testing.T) {
	g, _ := NewIPA(DefaultIPAConfig())
	s := domainState(t, 90) // 20°C over: tight budget
	g.Control(0, s.TempK, []DomainState{s})
	if s.Domain.Cap() == 0 {
		t.Fatal("hot domain should be capped")
	}
	if s.Domain.Cap() >= 600e6 {
		t.Errorf("cap = %d, want below table max", s.Domain.Cap())
	}
}

func TestIPARemovesCapsWhenCool(t *testing.T) {
	g, _ := NewIPA(DefaultIPAConfig())
	s := domainState(t, 35)
	s.Domain.SetCap(180e6)
	s.UtilCores = 0.1
	g.Control(0, s.TempK, []DomainState{s})
	if s.Domain.Cap() != 0 {
		t.Errorf("cap = %d, want removed when far under budget", s.Domain.Cap())
	}
}

func TestIPASplitsProportionally(t *testing.T) {
	g, _ := NewIPA(DefaultIPAConfig())
	hungry := domainState(t, 85)
	hungry.UtilCores = 4
	light := domainState(t, 85)
	light.UtilCores = 0.2
	g.Control(0, thermal.ToKelvin(85), []DomainState{hungry, light})
	// The hungry domain requested more, so its grant — and its cap —
	// must be at least as high as the light one's.
	hc, lc := hungry.Domain.Cap(), light.Domain.Cap()
	if hc == 0 {
		hc = 600e6
	}
	if lc == 0 {
		lc = 600e6
	}
	if hc < lc {
		t.Errorf("hungry cap %d < light cap %d; proportional split violated", hc, lc)
	}
}

func TestIPAZeroRequestRemovesCaps(t *testing.T) {
	g, _ := NewIPA(DefaultIPAConfig())
	s := domainState(t, 90)
	s.Model = nil
	s.Domain.SetCap(305e6)
	g.Control(0, s.TempK, []DomainState{s})
	if s.Domain.Cap() != 0 {
		t.Errorf("cap = %d, want removed when nothing requests power", s.Domain.Cap())
	}
}

// Property: whatever the temperature trajectory, step-wise caps are
// always valid OPP frequencies or zero.
func TestStepWiseCapAlwaysValidOPP(t *testing.T) {
	table := gpuTable()
	f := func(temps []float64) bool {
		g, _ := NewStepWise(DefaultStepWiseConfig())
		d, _ := dvfs.NewDomain("gpu", table, 0)
		s := DomainState{Domain: d, Model: testModel(), UtilCores: 1}
		for i, raw := range temps {
			tempK := 280 + math.Abs(math.Mod(raw, 120))
			s.TempK = tempK
			g.Control(float64(i), tempK, []DomainState{s})
			if c := d.Cap(); c != 0 && table.IndexOf(c) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: IPA caps are always valid OPPs or zero, and the budget is
// always finite and non-negative.
func TestIPACapAlwaysValidOPP(t *testing.T) {
	table := gpuTable()
	f := func(temps []float64, utils []float64) bool {
		g, _ := NewIPA(DefaultIPAConfig())
		d, _ := dvfs.NewDomain("gpu", table, 0)
		s := DomainState{Domain: d, Model: testModel()}
		for i, raw := range temps {
			tempK := 280 + math.Abs(math.Mod(raw, 120))
			s.TempK = tempK
			if len(utils) > 0 {
				s.UtilCores = math.Abs(math.Mod(utils[i%len(utils)], 4))
			}
			g.Control(float64(i), tempK, []DomainState{s})
			if c := d.Cap(); c != 0 && table.IndexOf(c) < 0 {
				return false
			}
			if b := g.Budget(tempK); b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
