package stability

import (
	"math"
	"testing"
)

// lumps are the lumped parameters of the three thermal topologies the
// sweeps run: the odroid-xu3 and nexus6p presets and the tricluster
// corpus platform (platform.StabilityParams of each, seed 1).
var lumps = [...]Params{
	{AmbientK: 298.15, ResistanceKPerW: 10, CapacitanceJPerK: 11.5, LeakScale: 0.00074375, ActivationK: 1800},
	{AmbientK: 298.15, ResistanceKPerW: 7.4074074074074066, CapacitanceJPerK: 45.2, LeakScale: 0.001385, ActivationK: 1800},
	{AmbientK: 298.15, ResistanceKPerW: 4.545454545454546, CapacitanceJPerK: 66.2, LeakScale: 0.0015575, ActivationK: 1800},
}

// fuzzParams scales one topology's R, C, κ and Q by factors in
// [1/4, 4). Non-finite fuzz inputs give NaN parameters, which the
// certified tests must leave undecided.
func fuzzParams(plat uint8, rMul, cMul, kMul, qMul float64) Params {
	scale := func(v, x float64) float64 { return v * math.Exp2(math.Mod(x, 2)) }
	p := lumps[int(plat)%len(lumps)]
	p.ResistanceKPerW = scale(p.ResistanceKPerW, rMul)
	p.CapacitanceJPerK = scale(p.CapacitanceJPerK, cMul)
	p.LeakScale = scale(p.LeakScale, kMul)
	p.ActivationK = scale(p.ActivationK, qMul)
	return p
}

// nudge moves v by ulps units in the last place.
func nudge(v float64, ulps int8) float64 {
	dir, n := math.Inf(1), int(ulps)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

// FuzzDecideAboveMatchesAnalyze requires every certain answer of
// DecideAbove to be Analyze's: no error, and above exactly when the
// analysis reports runaway or a stable fixed point above the limit.
// mode%4 places the limit at a raw temperature, at Analyze's stable or
// unstable fixed point, or at ψ's peak, nudged by ulps; mode&4 moves
// the power to |ulps|·1e-7 below the critical power, where ψ's peak
// lies inside Analyze's critical-stability tolerance.
func FuzzDecideAboveMatchesAnalyze(f *testing.F) {
	for plat := uint8(0); plat < 3; plat++ {
		for mode := uint8(0); mode < 8; mode++ {
			for _, ulps := range []int8{-3, -1, 0, 1, 3} {
				f.Add(plat, 0.0, 0.0, 0.0, 0.0, 3.0, 333.15, mode, ulps)
			}
		}
		f.Add(plat, 0.5, -0.3, 1.2, -0.8, 1.5, 320.0, uint8(1), int8(2))
		f.Add(plat, -1.5, 0.7, -1.9, 0.4, 7.5, 360.0, uint8(3), int8(-2))
		f.Add(plat, 0.0, 0.0, 0.0, 0.0, 0.0, 310.0, uint8(0), int8(0))
	}
	f.Add(uint8(0), math.NaN(), 0.0, 0.0, 0.0, 3.0, 333.15, uint8(0), int8(0))
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, math.Inf(1), 333.15, uint8(0), int8(0))
	f.Fuzz(func(t *testing.T, plat uint8, rMul, cMul, kMul, qMul, pd, limit float64, mode uint8, ulps int8) {
		p := fuzzParams(plat, rMul, cMul, kMul, qMul)
		pd = math.Mod(math.Abs(pd), 16)
		if mode&4 != 0 {
			crit, err := p.CriticalPower()
			if err != nil || math.IsInf(crit, 0) {
				return
			}
			pd = crit * (1 - math.Abs(float64(ulps))*1e-7)
		}
		limit = 290 + math.Mod(math.Abs(limit), 200)
		if an, err := p.Analyze(pd); err == nil {
			switch mode % 4 {
			case 1:
				limit = an.StableTempK
			case 2:
				limit = an.UnstableTempK
			case 3:
				limit = p.Temp(an.PeakTheta)
			}
		}
		if mode%4 != 0 {
			limit = nudge(limit, ulps)
		}
		above, certain := p.DecideAbove(pd, limit)
		if !certain {
			return
		}
		an, err := p.Analyze(pd)
		if err != nil {
			t.Fatalf("DecideAbove(%v, %v) on %+v decided, but Analyze fails: %v", pd, limit, p, err)
		}
		if exact := an.Class == Runaway || an.StableTempK > limit; above != exact {
			t.Fatalf("DecideAbove(%v, %v) on %+v = %v, Analyze says %v (%+v)", pd, limit, p, above, exact, an)
		}
	})
}

// FuzzProvablyBelowMatchesTimeToThreshold requires every proof of
// ProvablyBelow to hold: TimeToThreshold, direct and through the
// cache, returns exactly +Inf without error. mode%4 places the limit at
// a raw temperature, at Analyze's stable fixed point, or at the
// hottest temperature the horizon's RK4 steps reach, nudged by ulps;
// mode&4 uses the governor's 30 s horizon instead of a raw one.
func FuzzProvablyBelowMatchesTimeToThreshold(f *testing.F) {
	for plat := uint8(0); plat < 3; plat++ {
		for mode := uint8(0); mode < 8; mode++ {
			for _, ulps := range []int8{-4, -1, 0, 1, 4} {
				f.Add(plat, 0.0, 0.0, 0.0, 0.0, 3.0, 320.0, 333.15, 30.0, mode, ulps)
			}
		}
		f.Add(plat, 0.5, -0.3, 1.2, -0.8, 1.5, 300.0, 320.0, 60.0, uint8(2), int8(-1))
		f.Add(plat, -1.5, 0.7, -1.9, 0.4, 7.5, 330.0, 331.0, 10.0, uint8(0), int8(0))
		f.Add(plat, 0.0, 0.0, 0.0, 0.0, 0.2, 340.0, 350.0, 5.0, uint8(0), int8(0))
		// Over a short horizon the trajectory is nearly straight, so the
		// slope bound lies within a hair of the hottest step.
		for _, h := range []float64{0.05, 1} {
			f.Add(plat, 0.0, 0.0, 0.0, 0.0, 3.0, 320.0, 0.0, h, uint8(3), int8(-1))
			f.Add(plat, 0.0, 0.0, 0.0, 0.0, 3.0, 320.0, 0.0, h, uint8(3), int8(1))
		}
	}
	f.Add(uint8(1), 0.0, 0.0, 0.0, 0.0, 3.0, 320.0, 333.15, math.Inf(1), uint8(0), int8(0))
	f.Add(uint8(1), 0.0, math.NaN(), 0.0, 0.0, 3.0, 320.0, 333.15, 30.0, uint8(0), int8(0))
	f.Fuzz(func(t *testing.T, plat uint8, rMul, cMul, kMul, qMul, pd, from, limit, horizon float64, mode uint8, ulps int8) {
		p := fuzzParams(plat, rMul, cMul, kMul, qMul)
		pd = math.Mod(math.Abs(pd), 16)
		from = 290 + math.Mod(math.Abs(from), 80)
		limit = 290 + math.Mod(math.Abs(limit), 200)
		if mode&4 != 0 {
			horizon = 30
		} else if !math.IsInf(horizon, 1) {
			horizon = math.Mod(math.Abs(horizon), 200)
		}
		switch mode % 4 {
		case 1, 2:
			if an, err := p.Analyze(pd); err == nil {
				limit = nudge(an.StableTempK, ulps)
			}
		case 3:
			if hot, ok := hottestStep(p, pd, from, horizon); ok {
				limit = nudge(hot, ulps)
			}
		}
		if !p.ProvablyBelow(pd, from, limit, horizon) {
			return
		}
		got, err := p.TimeToThreshold(pd, from, limit, horizon)
		if err != nil || !math.IsInf(got, 1) {
			t.Fatalf("ProvablyBelow(%v, %v, %v, %v) on %+v, but TimeToThreshold = %v, %v", pd, from, limit, horizon, p, got, err)
		}
		got, err = NewTransientCache().TimeToThreshold(p, pd, from, limit, horizon)
		if err != nil || !math.IsInf(got, 1) {
			t.Fatalf("ProvablyBelow(%v, %v, %v, %v) on %+v, but the cache = %v, %v", pd, from, limit, horizon, p, got, err)
		}
	})
}

// hottestStep returns the hottest temperature TimeToTemp's RK4 steps
// reach from fromK within the horizon, the boundary ProvablyBelow
// must stay on the right side of.
func hottestStep(p Params, pdW, fromK, horizonS float64) (float64, bool) {
	if p.Validate() != nil || !(horizonS > 0) || !(fromK > 0) {
		return 0, false
	}
	dt := p.ResistanceKPerW * p.CapacitanceJPerK / 200
	if dt > horizonS/10 {
		dt = horizonS / 10
	}
	if !(horizonS/dt <= maxTrajSteps) {
		return 0, false
	}
	hot := fromK
	for _, t := range NewTransientCache().record(p, pdW, fromK, dt, trajSteps(dt, horizonS)) {
		hot = math.Max(hot, t)
	}
	return hot, true
}

// TestDecideAboveAnswersBothWays pins the certified answers on the
// odroid lump: a cool limit is decided "not above", a limit below the
// fixed point or any limit in runaway "above", and limits on the
// fixed points themselves stay undecided.
func TestDecideAboveAnswersBothWays(t *testing.T) {
	p := lumps[0]
	an, err := p.Analyze(3)
	if err != nil || an.Class != Stable {
		t.Fatalf("odroid lump at 3 W: %+v, %v", an, err)
	}
	crit, err := p.CriticalPower()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		pd, limit      float64
		above, certain bool
	}{
		{"cool limit", 3, an.StableTempK + 5, false, true},
		{"hot fixed point", 3, an.StableTempK - 5, true, true},
		{"runaway", crit * 1.1, 340, true, true},
		{"at the stable point", 3, an.StableTempK, false, false},
		{"above the unstable point", 3, an.UnstableTempK + 50, false, false},
		{"NaN power", math.NaN(), 340, false, false},
		{"infinite limit", 3, math.Inf(1), false, false},
		{"zero limit", 3, 0, false, false},
		{"negative limit", 3, -340, false, false},
	} {
		above, certain := p.DecideAbove(tc.pd, tc.limit)
		if above != tc.above || certain != tc.certain {
			t.Errorf("%s: DecideAbove = (%v, %v), want (%v, %v)", tc.name, above, certain, tc.above, tc.certain)
		}
	}
	// Without leakage ψ's roots are 0 and Q/a: the fixed point is
	// a = Ta + R·Pd, 328.15 K here.
	noLeak := p
	noLeak.LeakScale = 0
	for _, tc := range []struct {
		limit float64
		above bool
	}{{320, true}, {340, false}} {
		if above, certain := noLeak.DecideAbove(3, tc.limit); above != tc.above || !certain {
			t.Errorf("without leakage, limit %v K: DecideAbove = (%v, %v), want (%v, true)", tc.limit, above, certain, tc.above)
		}
	}
}

// TestProvablyBelowProvesDistantLimits pins ProvablyBelow on the
// odroid lump: a limit far beyond the horizon's reach is proved, one
// the trajectory crosses is not, and neither are the inputs
// TimeToThreshold rejects or answers without +Inf.
func TestProvablyBelowProvesDistantLimits(t *testing.T) {
	p := lumps[0]
	for _, tc := range []struct {
		name                   string
		pd, from, limit, horiz float64
		want                   bool
	}{
		{"distant limit", 3, 320, 340, 30, true},
		{"crossed limit", 3, 320, 321, 30, false},
		{"falling", 3, 340, 320, 30, false},
		{"equal temperatures", 3, 320, 320, 30, false},
		{"infinite horizon", 3, 320, 340, math.Inf(1), false},
		{"zero horizon", 3, 320, 340, 0, false},
		{"NaN power", math.NaN(), 320, 340, 30, false},
	} {
		if got := p.ProvablyBelow(tc.pd, tc.from, tc.limit, tc.horiz); got != tc.want {
			t.Errorf("%s: ProvablyBelow = %v, want %v", tc.name, got, tc.want)
		}
	}
	tta, err := p.TimeToThreshold(3, 320, 321, 30)
	if err != nil || math.IsInf(tta, 1) {
		t.Errorf("the crossed limit should be reached: %v, %v", tta, err)
	}
}
