package experiments

import (
	"fmt"
	"slices"

	"repro/internal/power"
	"repro/internal/stability"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// Mode is one of the three Section IV-C scenarios.
type Mode int

// The three experimental arms of Figures 8-9 and Table II.
const (
	// Alone runs the benchmark by itself under the default governor.
	Alone Mode = iota
	// WithBML adds the basicmath-large background task, still under the
	// default (trip-point + IPA) governor.
	WithBML
	// Proposed adds BML but manages heat with the paper's
	// application-aware controller instead of whole-system throttling.
	Proposed
)

// String names the mode as the paper's column headings do.
func (m Mode) String() string {
	switch m {
	case Alone:
		return "app alone"
	case WithBML:
		return "app + BML"
	case Proposed:
		return "app + BML with proposed control"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Modes lists the three arms in paper order.
func Modes() []Mode { return []Mode{Alone, WithBML, Proposed} }

// OdroidDurationS covers the 3DMark run (GT1 + GT2) and matches the
// 250 s x-axis of Figure 8.
const OdroidDurationS = 250

// OdroidPrewarmC is the starting temperature of the Figure 8 traces:
// the paper's board idles near 50°C with the fan off.
const OdroidPrewarmC = mobisim.OdroidPrewarmC

// OdroidBenches lists the two Section IV-C foreground benchmarks.
var OdroidBenches = []string{"3dmark", "nenamark"}

// odroidSpecs returns the three arms of one benchmark's Section IV-C
// study ("3dmark" or "nenamark"), indexed by Mode: IPA without and with
// the "+bml" mix, then the proposed application-aware controller (which
// replaces whole-system throttling). Background kernels execute for
// real, as the paper's measured runs do.
func odroidSpecs(bench string, seed int64) ([]mobisim.Scenario, error) {
	if !slices.Contains(OdroidBenches, bench) {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	alone := mobisim.Scenario{Platform: mobisim.PlatformOdroidXU3, Workload: bench, Governor: mobisim.GovIPA, DurationS: OdroidDurationS, Seed: seed}
	withBML := alone
	withBML.Workload += mobisim.WorkloadSuffixBML
	proposed := withBML
	proposed.Governor = mobisim.GovAppAware
	return []mobisim.Scenario{alone, withBML, proposed}, nil
}

// Fig8Result is the Figure 8 data product: the maximum system
// temperature over time for the three 3DMark scenarios.
type Fig8Result struct {
	// Alone, WithBML, Proposed are max-temperature traces (°C).
	Alone, WithBML, Proposed *trace.Series
}

// Fig8 reproduces Figure 8.
func (s *Study) Fig8() (*Fig8Result, error) {
	runs, err := s.arms(odroidSpecs("3dmark", s.seed))
	if err != nil {
		return nil, err
	}
	return &Fig8Result{
		Alone:    named(runs[Alone].Sim().Recording().MaxTempSeries(), "3DMark"),
		WithBML:  named(runs[WithBML].Sim().Recording().MaxTempSeries(), "3DMark+BML"),
		Proposed: named(runs[Proposed].Sim().Recording().MaxTempSeries(), "Proposed Control"),
	}, nil
}

// Fig9Result is the Figure 9 data product: the power distribution of
// one 3DMark scenario.
type Fig9Result struct {
	// Mode is the arm.
	Mode Mode
	// TotalW is the run's average total power.
	TotalW float64
	// Shares maps each rail to its fraction of total energy.
	Shares map[power.Rail]float64
}

// Fig9 reproduces Figure 9's three pie charts.
func (s *Study) Fig9() ([]Fig9Result, error) {
	runs, err := s.arms(odroidSpecs("3dmark", s.seed))
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Result, 0, len(runs))
	for _, m := range Modes() {
		meter := runs[m].Sim().Meter()
		out = append(out, Fig9Result{
			Mode:   m,
			TotalW: meter.AveragePowerW(),
			Shares: meter.Shares(),
		})
	}
	return out, nil
}

// Slices converts the shares to chart slices in the paper's rail order.
func (r Fig9Result) Slices() []trace.ShareSlice {
	out := make([]trace.ShareSlice, 0, len(r.Shares))
	for _, rail := range power.Rails() {
		out = append(out, trace.ShareSlice{Label: rail.String(), Share: r.Shares[rail]})
	}
	return out
}

// Table2Row is one row of the paper's Table II.
type Table2Row struct {
	// Test names the benchmark metric ("3DMark GT1", "Nenamark3", ...).
	Test string
	// Unit is "FPS" or "levels".
	Unit string
	// Alone, WithBML, Proposed are the three scenario scores.
	Alone, WithBML, Proposed float64
}

// Table2 reproduces Table II: 3DMark GT1/GT2 FPS and Nenamark levels
// under the three scenarios.
func (s *Study) Table2() ([]Table2Row, error) {
	tm, err := s.arms(odroidSpecs("3dmark", s.seed))
	if err != nil {
		return nil, err
	}
	nm, err := s.arms(odroidSpecs("nenamark", s.seed))
	if err != nil {
		return nil, err
	}
	gt1 := Table2Row{Test: "3DMark GT1", Unit: "FPS"}
	gt2 := Table2Row{Test: "3DMark GT2", Unit: "FPS"}
	nn := Table2Row{Test: "Nenamark3", Unit: "levels"}
	for _, m := range Modes() {
		bench := tm[m].Foreground().(*workload.ThreeDMark)
		score := nm[m].Foreground().(*workload.Nenamark).Score()
		switch m {
		case Alone:
			gt1.Alone, gt2.Alone, nn.Alone = bench.GT1FPS(), bench.GT2FPS(), score
		case WithBML:
			gt1.WithBML, gt2.WithBML, nn.WithBML = bench.GT1FPS(), bench.GT2FPS(), score
		case Proposed:
			gt1.Proposed, gt2.Proposed, nn.Proposed = bench.GT1FPS(), bench.GT2FPS(), score
		}
	}
	return []Table2Row{gt1, gt2, nn}, nil
}

// Fig7Curve is one fixed-point-function curve of Figure 7.
type Fig7Curve struct {
	// PowerW is the dynamic power of the curve.
	PowerW float64
	// Analysis classifies the operating point.
	Analysis stability.Analysis
	// Theta and Psi are the plotted samples (scaled ψ, as in the paper).
	Theta, Psi []float64
}

// Fig7Experiment reproduces Figure 7: the fixed-point function at 2 W
// (two roots), ~5.5 W (critically stable) and 8 W (no roots) for the
// Odroid-calibrated lumped parameters.
func Fig7Experiment() ([]Fig7Curve, float64, error) {
	p := stability.DefaultOdroidParams()
	crit, err := p.CriticalPower()
	if err != nil {
		return nil, 0, err
	}
	curves := make([]Fig7Curve, 0, 3)
	for _, pd := range []float64{2, crit, 8} {
		an, err := p.Analyze(pd)
		if err != nil {
			return nil, 0, err
		}
		c := Fig7Curve{PowerW: pd, Analysis: an}
		for th := 1.5; th <= 6.5; th += 0.05 {
			c.Theta = append(c.Theta, th)
			c.Psi = append(c.Psi, p.PsiScaled(th, pd))
		}
		curves = append(curves, c)
	}
	return curves, crit, nil
}
