package stability

import "math"

// The certified tests below answer the two questions the app-aware
// governor asks every control tick — is the fixed point above the
// limit, and can the limit be reached within the horizon — from one
// exponential each, instead of Analyze's three bisections or
// TimeToThreshold's RK4 chain. Each answers only when its quantity
// clears zero by a rounding margin; inside the margin, or outside the
// analysis' regular domain, it reports itself inconclusive and the
// caller runs the exact computation.

// certMargin is the tests' relative rounding margin. It sits far above
// the ~1e-13 relative precision of Analyze's bisections and the
// rounding of TimeToTemp's RK4 steps, so a certified answer is the
// exact computation's, also for limits a few ulps from a fixed point
// (the fuzz targets in decide_test.go hold it to that; their seed
// corpus fails with a margin of 1e-14).
const certMargin = 1e-9

// maxBracketRatio bounds (Q+b)/a for DecideAbove. ψ′'s root is at most
// (Q+b)/(2a), so below the bound Analyze's geometric bracket search
// stays far under its 1e9 give-up point and cannot fail.
const maxBracketRatio = 2e8

// maxProvableSteps bounds the RK4 step count ProvablyBelow reasons
// about, so the float accumulation of TimeToTemp's elapsed time stays
// well inside certMargin.
const maxProvableSteps = 1e5

// DecideAbove reports, from one exponential, what Analyze(pdW) would
// say about the limit: above is true when the analysis finds thermal
// runaway or a stable fixed point hotter than limitK
// (Class == Runaway || StableTempK > limitK). When certain is false the
// inputs lie within a rounding margin of a class or root boundary, or
// outside the analysis' regular domain, and only Analyze can tell.
// When certain is true, Analyze(pdW) succeeds and agrees.
//
// It evaluates ψ and ψ′ at the limit's auxiliary temperature
// θ_L = Q/limitK. ψ is concave, so:
//   - ψ(θ_L) > criticalTol·b puts θ_L strictly between two roots that
//     Analyze classifies Stable, with T_s < limitK: not above;
//   - ψ′(θ_L) < 0 and ψ(θ_L) < 0 put θ_L right of the peak and of the
//     upper root, if there is one: runaway, or T_s > limitK: above.
//
// θ_L left of the peak with ψ(θ_L) < 0 — a limit hotter than the
// unstable fixed point, or runaway — stays undecided.
func (p Params) DecideAbove(pdW, limitK float64) (above, certain bool) {
	// Inputs Analyze rejects, and any that could make its bracket
	// search fail, stay undecided. Non-finite values elsewhere make a
	// test term infinite or NaN, and a limit ≤ 0 puts θ_L left of the
	// peak where ψ < 0: all fail both tests below.
	if p.Validate() != nil || !(pdW >= 0) {
		return false, false
	}
	a, b := p.coeffs(pdW)
	q := p.ActivationK
	if !(q+b < maxBracketRatio*a) {
		return false, false
	}
	th := q / limitK
	be := b * math.Exp(-th)
	psi := q*th - a*th*th - be
	dpsi := q - 2*a*th + be
	switch {
	case psi > criticalTol*b+certMargin*(q*th+a*th*th+be):
		return false, true
	case psi < -certMargin*(q*th+a*th*th+be) && dpsi < -certMargin*(q+2*a*th+be):
		return true, true
	}
	return false, false
}

// ProvablyBelow reports, from one exponential, that
// TimeToThreshold(pdW, fromK, limitK, horizonS) returns +Inf: that no
// RK4 step of the integration reaches limitK before the horizon. It
// answers false whenever it cannot prove that, including for every
// input TimeToThreshold rejects and every falling (fromK ≥ limitK) case.
//
// Leakage grows with temperature, so on [lo, limitK] the lumped slope
// g(T) = (Pd + Pleak(T) − (T − Ta)/R)/C lies between
//
//	gMin = (Pd − (limitK − Ta)/R)/C,  gMax = (Pd + Pleak(limitK) − (lo − Ta)/R)/C.
//
// Every RK4 stage and step moves the temperature by dt times a
// weighted mean of slopes taken inside the band, so the N ≤ horizon/dt
// + 1 steps the loop can take keep every stage point in
// [from + N·dt·min(gMin, 0), from + N·dt·max(gMax, 0)]; lo is that
// band's lower end. If its upper end, with margin, stays below
// limitK, no step crosses.
func (p Params) ProvablyBelow(pdW, fromK, limitK, horizonS float64) bool {
	// TimeToTemp's errors and its falling and equal cases. A NaN or
	// infinite power or limit makes hi NaN or +Inf, which fails the
	// final test.
	if p.Validate() != nil || !(fromK > 0) || !(limitK > fromK) || !(horizonS > 0) {
		return false
	}
	// TimeToTemp's step choice.
	dt := p.ResistanceKPerW * p.CapacitanceJPerK / 200
	if dt > horizonS/10 {
		dt = horizonS / 10
	}
	if !(horizonS/dt < maxProvableSteps) {
		return false
	}
	span := (horizonS + dt) * (1 + certMargin)
	r, c, ta := p.ResistanceKPerW, p.CapacitanceJPerK, p.AmbientK
	leak := p.Leakage(limitK)
	gMin := (pdW - (limitK-ta)/r) / c
	// Widen both bounds by the margin, scaled by the magnitudes the
	// slope is summed from, to cover the integrator's rounding.
	slack := certMargin * (pdW + leak + (math.Abs(fromK-ta)+span*math.Abs(gMin)+math.Abs(limitK-ta))/r) / c
	lo := fromK + span*math.Min(gMin-slack, 0)
	gMax := (pdW+leak-(lo-ta)/r)/c + slack
	hi := fromK + span*math.Max(gMax, 0)
	return hi < limitK*(1-certMargin)
}
