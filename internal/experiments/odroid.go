package experiments

import (
	"fmt"

	"repro/internal/appaware"
	"repro/internal/power"
	"repro/internal/sim"
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

// OdroidRun is one completed Section IV-C scenario.
type OdroidRun struct {
	// Mode is the experimental arm.
	Mode Mode
	// Engine holds traces, meter and scheduler state.
	Engine *sim.Engine
	// Bench is the foreground benchmark (3DMark or Nenamark).
	Bench workload.App
	// BML is the background task (nil in Alone mode).
	BML *workload.BML
	// Governor is the application-aware controller (nil unless Proposed).
	Governor *appaware.Governor
}

// RunOdroid runs one arm of the Section IV-C study with the given
// foreground benchmark ("3dmark" or "nenamark") for durationS seconds.
// Each arm is one facade scenario: IPA without/with the "+bml" mix,
// or the proposed application-aware controller (which replaces
// whole-system throttling). Background kernels execute for real, as
// the paper's measured runs do.
func RunOdroid(bench string, mode Mode, durationS float64, seed int64) (*OdroidRun, error) {
	if bench != "3dmark" && bench != "nenamark" {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
	}
	workloadMix := bench
	gov := mobisim.GovIPA
	if mode != Alone {
		workloadMix += mobisim.WorkloadSuffixBML
	}
	if mode == Proposed {
		gov = mobisim.GovAppAware
	}
	eng, err := mobisim.New(mobisim.Scenario{
		Platform:  mobisim.PlatformOdroidXU3,
		Workload:  workloadMix,
		Governor:  gov,
		DurationS: durationS,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return &OdroidRun{
		Mode:     mode,
		Engine:   eng.Sim(),
		Bench:    eng.Foreground(),
		BML:      eng.BackgroundBML(),
		Governor: eng.AppAware(),
	}, nil
}

// Fig8Result is the Figure 8 data product: the maximum system
// temperature over time for the three 3DMark scenarios.
type Fig8Result struct {
	// Alone, WithBML, Proposed are max-temperature traces (°C).
	Alone, WithBML, Proposed *trace.Series
}

// Fig8Experiment reproduces Figure 8.
func Fig8Experiment(seed int64) (*Fig8Result, error) {
	runs, err := threeDMarkRuns(seed)
	if err != nil {
		return nil, err
	}
	a := runs[Alone].Engine.Recording().MaxTempSeries()
	a.Name = "3DMark"
	b := runs[WithBML].Engine.Recording().MaxTempSeries()
	b.Name = "3DMark+BML"
	c := runs[Proposed].Engine.Recording().MaxTempSeries()
	c.Name = "Proposed Control"
	return &Fig8Result{Alone: a, WithBML: b, Proposed: c}, nil
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

// Fig9Experiment reproduces Figure 9's three pie charts.
func Fig9Experiment(seed int64) ([]Fig9Result, error) {
	runs, err := threeDMarkRuns(seed)
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Result, 0, 3)
	for _, m := range Modes() {
		meter := runs[m].Engine.Meter()
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

// Table2Experiment reproduces Table II: 3DMark GT1/GT2 FPS and Nenamark
// levels under the three scenarios.
func Table2Experiment(seed int64) ([]Table2Row, error) {
	tm, err := threeDMarkRuns(seed)
	if err != nil {
		return nil, err
	}
	gt1 := Table2Row{Test: "3DMark GT1", Unit: "FPS"}
	gt2 := Table2Row{Test: "3DMark GT2", Unit: "FPS"}
	for _, m := range Modes() {
		bench := tm[m].Bench.(*workload.ThreeDMark)
		switch m {
		case Alone:
			gt1.Alone, gt2.Alone = bench.GT1FPS(), bench.GT2FPS()
		case WithBML:
			gt1.WithBML, gt2.WithBML = bench.GT1FPS(), bench.GT2FPS()
		case Proposed:
			gt1.Proposed, gt2.Proposed = bench.GT1FPS(), bench.GT2FPS()
		}
	}
	nn := Table2Row{Test: "Nenamark3", Unit: "levels"}
	for _, m := range Modes() {
		run, err := RunOdroid("nenamark", m, OdroidDurationS, seed)
		if err != nil {
			return nil, err
		}
		score := run.Bench.(*workload.Nenamark).Score()
		switch m {
		case Alone:
			nn.Alone = score
		case WithBML:
			nn.WithBML = score
		case Proposed:
			nn.Proposed = score
		}
	}
	return []Table2Row{gt1, gt2, nn}, nil
}

// threeDMarkRuns executes the three 3DMark arms once each.
func threeDMarkRuns(seed int64) (map[Mode]*OdroidRun, error) {
	out := make(map[Mode]*OdroidRun, 3)
	for _, m := range Modes() {
		run, err := RunOdroid("3dmark", m, OdroidDurationS, seed)
		if err != nil {
			return nil, err
		}
		out[m] = run
	}
	return out, nil
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
