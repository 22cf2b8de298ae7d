// Package experiments reproduces every table and figure of the paper's
// evaluation: the Nexus 6P throttling study of Section III (Figures 1-6,
// Table I) and the Odroid-XU3 application-aware governor study of
// Section IV (Figures 7-9, Table II). A Study runs each controlled arm
// the requested artifacts read once, and every simulated figure and
// table is a method projecting structured results out of its engines
// (Figure 7 is analytic); cmd/repro renders them and bench_test.go
// regenerates them as benchmarks.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/dvfs"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// NexusApps lists the five Section III apps in the paper's Table I order.
var NexusApps = []string{"paper.io", "stickman-hook", "amazon", "hangouts", "facebook"}

// NexusDurationS is the measured window of the Section III runs,
// matching the 140 s x-axis of Figures 1, 3 and 5.
const NexusDurationS = 140

// NexusPrewarmC is the starting temperature of the Section III runs:
// the paper measures a phone that has been handled and unlocked, not
// one at ambient (Figure 1's traces start near 36°C).
const NexusPrewarmC = mobisim.NexusPrewarmC

// nexusSpecs returns the two arms of one app's Section III study: the
// app on the Nexus 6P for 140 s with the default thermal governor
// disabled (none), then enabled (stepwise).
func nexusSpecs(app string, seed int64) ([]mobisim.Scenario, error) {
	if !slices.Contains(NexusApps, app) {
		return nil, fmt.Errorf("experiments: unknown app %q", app)
	}
	free := mobisim.Scenario{Platform: mobisim.PlatformNexus6P, Workload: app, Governor: mobisim.GovNone, DurationS: NexusDurationS, Seed: seed}
	throttled := free
	throttled.Governor = mobisim.GovStepwise
	return []mobisim.Scenario{free, throttled}, nil
}

// TempProfile is the Figure 1/3/5 data product: the package-sensor
// trace of both arms of one app's study.
type TempProfile struct {
	// AppName is the app under study.
	AppName string
	// Without and With are the package temperature traces (°C) with the
	// thermal governor disabled and enabled.
	Without, With *trace.Series
}

// TempProfile returns one app's temperature profiles (Figures 1, 3 and
// 5 use paper.io, stickman-hook and amazon).
func (s *Study) TempProfile(app string) (*TempProfile, error) {
	arms, err := s.arms(nexusSpecs(app, s.seed))
	if err != nil {
		return nil, err
	}
	return &TempProfile{
		AppName: app,
		Without: named(arms[0].Sim().Recording().SensorSeries(), "without throttling"),
		With:    named(arms[1].Sim().Recording().SensorSeries(), "with throttling"),
	}, nil
}

// Residency is the Figure 2/4/6 data product: one domain's frequency
// residency shares under both arms.
type Residency struct {
	// AppName is the app under study; Domain is the domain binned.
	AppName string
	Domain  platform.DomainID
	// FreqsHz lists the OPP bins ascending.
	FreqsHz []uint64
	// Without and With map frequency to residency share in [0,1].
	Without, With map[uint64]float64
}

// Residency returns the residency histogram of one app's domain under
// both arms (GPU for Figures 2 and 4, big cluster for Figure 6).
func (s *Study) Residency(app string, dom platform.DomainID) (*Residency, error) {
	arms, err := s.arms(nexusSpecs(app, s.seed))
	if err != nil {
		return nil, err
	}
	free := arms[0].Sim().Platform().Domain(dom)
	return &Residency{
		AppName: app,
		Domain:  dom,
		FreqsHz: free.Table().Frequencies(),
		Without: free.ResidencyShare(),
		With:    arms[1].Sim().Platform().Domain(dom).ResidencyShare(),
	}, nil
}

// BarGroups converts the residency into chart groups, one per OPP.
func (r *Residency) BarGroups() []trace.BarGroup {
	groups := make([]trace.BarGroup, 0, len(r.FreqsHz))
	for _, f := range r.FreqsHz {
		groups = append(groups, trace.BarGroup{
			Label:  dvfs.MHz(f),
			Values: []float64{r.Without[f], r.With[f]},
		})
	}
	return groups
}

// Table1Row is one row of the paper's Table I.
type Table1Row struct {
	// App is the application name.
	App string
	// WithoutFPS and WithFPS are median frame rates of the two arms.
	WithoutFPS, WithFPS float64
	// ReductionPct is the relative FPS loss in percent.
	ReductionPct float64
}

// Table1 reproduces Table I: median FPS for all five apps with and
// without thermal throttling.
func (s *Study) Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(NexusApps))
	for _, name := range NexusApps {
		arms, err := s.arms(nexusSpecs(name, s.seed))
		if err != nil {
			return nil, err
		}
		wo := arms[0].Foreground().(*workload.FrameApp).MedianFPS()
		wi := arms[1].Foreground().(*workload.FrameApp).MedianFPS()
		red := 0.0
		if wo > 0 {
			red = (wo - wi) / wo * 100
		}
		rows = append(rows, Table1Row{App: name, WithoutFPS: wo, WithFPS: wi, ReductionPct: red})
	}
	return rows, nil
}
