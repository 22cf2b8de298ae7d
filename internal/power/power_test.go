package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
)

const mhz = 1_000_000

func bigModel() *DomainModel {
	return &DomainModel{
		Name:    "big",
		CeffF:   1.0e-9,
		IdleW:   0.05,
		Leakage: LeakageParams{K: 2e-5, Q: 1200},
	}
}

func bigTable(t *testing.T) *dvfs.Table {
	t.Helper()
	tbl, err := dvfs.NewTable(
		dvfs.OPP{FreqHz: 384 * mhz, VoltageV: 0.85},
		dvfs.OPP{FreqHz: 960 * mhz, VoltageV: 1.00},
		dvfs.OPP{FreqHz: 1440 * mhz, VoltageV: 1.10},
		dvfs.OPP{FreqHz: 1958 * mhz, VoltageV: 1.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestLeakageIncreasesWithTemperature(t *testing.T) {
	l := LeakageParams{K: 1e-5, Q: 1200}
	p40 := l.Power(1.0, 313.15)
	p80 := l.Power(1.0, 353.15)
	if p80 <= p40 {
		t.Errorf("leakage at 80C (%v) should exceed 40C (%v)", p80, p40)
	}
}

func TestLeakageZeroBelowAbsoluteZero(t *testing.T) {
	l := LeakageParams{K: 1e-5, Q: 1200}
	if got := l.Power(1.0, 0); got != 0 {
		t.Errorf("leakage at T=0 should be 0, got %v", got)
	}
	if got := l.Power(1.0, -10); got != 0 {
		t.Errorf("leakage at negative T should be 0, got %v", got)
	}
}

func TestLeakageScalesWithVoltage(t *testing.T) {
	l := LeakageParams{K: 1e-5, Q: 1200}
	if l.Power(1.2, 350) <= l.Power(0.9, 350) {
		t.Error("leakage should grow with voltage")
	}
}

func TestValidate(t *testing.T) {
	good := bigModel()
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	cases := []DomainModel{
		{Name: "noceff", CeffF: 0, Leakage: LeakageParams{K: 1, Q: 1}},
		{Name: "negidle", CeffF: 1e-9, IdleW: -1, Leakage: LeakageParams{K: 1, Q: 1}},
		{Name: "negk", CeffF: 1e-9, Leakage: LeakageParams{K: -1, Q: 1}},
		{Name: "noq", CeffF: 1e-9, Leakage: LeakageParams{K: 1, Q: 0}},
	}
	for _, m := range cases {
		m := m
		if err := m.Validate(); err == nil {
			t.Errorf("model %q should be invalid", m.Name)
		}
	}
}

func TestDynamicPowerFormula(t *testing.T) {
	m := bigModel()
	opp := dvfs.OPP{FreqHz: 1000 * mhz, VoltageV: 1.0}
	got := m.Dynamic(opp, 2.0) // 2 cores fully busy
	want := 1.0e-9 * 1.0 * 1.0 * 1000e6 * 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("dynamic = %v, want %v", got, want)
	}
}

func TestDynamicClampsNegativeUtil(t *testing.T) {
	m := bigModel()
	opp := dvfs.OPP{FreqHz: 1000 * mhz, VoltageV: 1.0}
	if got := m.Dynamic(opp, -3); got != 0 {
		t.Errorf("dynamic with negative util = %v, want 0", got)
	}
}

func TestTotalComposition(t *testing.T) {
	m := bigModel()
	opp := dvfs.OPP{FreqHz: 960 * mhz, VoltageV: 1.0}
	tot := m.Total(opp, 1.0, 350)
	want := m.Dynamic(opp, 1.0) + m.IdleW + m.Leakage.Power(1.0, 350)
	if math.Abs(tot-want) > 1e-12 {
		t.Errorf("total = %v, want %v", tot, want)
	}
}

func TestPowerMonotoneInFrequencyProperty(t *testing.T) {
	m := bigModel()
	tbl := bigTable(t)
	f := func(utilPct uint8, tempOff uint8) bool {
		util := float64(utilPct%101) / 100 * 4
		temp := 300 + float64(tempOff%80)
		prev := -1.0
		for i := 0; i < tbl.Len(); i++ {
			p := m.Total(tbl.At(i), util, temp)
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxFreqWithinBudget(t *testing.T) {
	m := bigModel()
	tbl := bigTable(t)
	temp := 330.0
	// A generous budget admits the max OPP.
	pMax := m.Total(tbl.Max(), 4, temp)
	if got := m.MaxFreqWithinBudget(tbl, 4, temp, pMax+0.1); got.FreqHz != tbl.Max().FreqHz {
		t.Errorf("generous budget -> %d, want max", got.FreqHz)
	}
	// A starvation budget still returns the min OPP.
	if got := m.MaxFreqWithinBudget(tbl, 4, temp, 0); got.FreqHz != tbl.Min().FreqHz {
		t.Errorf("zero budget -> %d, want min", got.FreqHz)
	}
	// A mid budget returns an OPP whose power fits and whose successor
	// does not.
	mid := m.Total(tbl.At(1), 4, temp) + 1e-9
	got := m.MaxFreqWithinBudget(tbl, 4, temp, mid)
	if got.FreqHz != tbl.At(1).FreqHz {
		t.Errorf("mid budget -> %d, want %d", got.FreqHz, tbl.At(1).FreqHz)
	}
}

func TestMaxFreqBudgetRespectedProperty(t *testing.T) {
	m := bigModel()
	tbl := bigTable(t)
	f := func(budgetCentiW uint16, utilPct uint8) bool {
		budget := float64(budgetCentiW) / 100
		util := float64(utilPct%101) / 100 * 4
		opp := m.MaxFreqWithinBudget(tbl, util, 330, budget)
		if opp.FreqHz == tbl.Min().FreqHz {
			return true // min is always allowed as a last resort
		}
		return m.Total(opp, util, 330) <= budget
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRailString(t *testing.T) {
	names := map[Rail]string{
		RailLittle: "little",
		RailBig:    "big",
		RailMem:    "mem",
		RailGPU:    "gpu",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("rail %d = %q, want %q", int(r), r.String(), want)
		}
	}
	if Rail(9).String() == "" {
		t.Error("unknown rail should still stringify")
	}
	if len(Rails()) != 4 {
		t.Errorf("Rails() = %v", Rails())
	}
}

func TestSampleTotal(t *testing.T) {
	s := Sample{W: [4]float64{0.1, 1.2, 0.3, 1.4}}
	if math.Abs(s.Total()-3.0) > 1e-12 {
		t.Errorf("total = %v, want 3.0", s.Total())
	}
}

func TestMeterIntegration(t *testing.T) {
	var m Meter
	s := Sample{W: [4]float64{1, 2, 0, 1}}
	if err := m.Record(s, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(s, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := m.energyJ[RailBig]; math.Abs(got-2.0) > 1e-12 {
		t.Errorf("big energy = %v, want 2.0", got)
	}
	if got := m.TotalEnergyJ(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("total energy = %v, want 4.0", got)
	}
	if got := m.AveragePowerW(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("avg power = %v, want 4.0", got)
	}
	if got := m.Shares()[RailBig]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("big share = %v, want 0.5", got)
	}
	if m.elapsed != 1.0 {
		t.Errorf("elapsed = %v", m.elapsed)
	}
	if m.last != s {
		t.Error("last sample mismatch")
	}
}

func TestMeterValidation(t *testing.T) {
	var m Meter
	if err := m.Record(Sample{}, 0); err == nil {
		t.Error("expected error for zero dt")
	}
	bad := Sample{W: [4]float64{-1, 0, 0, 0}}
	if err := m.Record(bad, 0.1); err == nil {
		t.Error("expected error for negative power")
	}
	nan := Sample{W: [4]float64{math.NaN(), 0, 0, 0}}
	if err := m.Record(nan, 0.1); err == nil {
		t.Error("expected error for NaN power")
	}
}

func TestMeterSharesSumToOneProperty(t *testing.T) {
	f := func(ws [][4]uint8) bool {
		var m Meter
		for _, w := range ws {
			s := Sample{W: [4]float64{float64(w[0]), float64(w[1]), float64(w[2]), float64(w[3])}}
			if err := m.Record(s, 0.01); err != nil {
				return false
			}
		}
		if m.TotalEnergyJ() == 0 {
			return true
		}
		sum := 0.0
		for _, sh := range m.Shares() {
			sum += sh
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeterEmpty(t *testing.T) {
	var m Meter
	if m.AveragePowerW() != 0 || m.Shares()[RailGPU] != 0 {
		t.Error("empty meter should report zeros")
	}
}
