// Package experiments reproduces every table and figure of the paper's
// evaluation: the Nexus 6P throttling study of Section III (Figures 1-6,
// Table I) and the Odroid-XU3 application-aware governor study of
// Section IV (Figures 7-9, Table II). Each experiment is a deterministic
// simulation scenario returning structured results; cmd/repro renders
// them and bench_test.go regenerates them as benchmarks.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/dvfs"
	"repro/internal/platform"
	"repro/internal/sim"
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

// NexusRun is the result of one Section III scenario.
type NexusRun struct {
	// App is the completed workload (FPS statistics inside).
	App *workload.FrameApp
	// Engine holds traces and residency.
	Engine *sim.Engine
}

// RunNexusApp reproduces one arm of the Section III study: the named
// app on the Nexus 6P for 140 s, with the default thermal governor
// either enabled (throttle) or disabled — the paper's two controlled
// scenarios. The wiring is one facade scenario: stepwise vs none.
func RunNexusApp(name string, throttle bool, seed int64) (*NexusRun, error) {
	known := false
	for _, app := range NexusApps {
		if name == app {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("experiments: unknown app %q", name)
	}
	gov := mobisim.GovNone
	if throttle {
		gov = mobisim.GovStepwise
	}
	eng, err := mobisim.New(mobisim.Scenario{
		Platform:  mobisim.PlatformNexus6P,
		Workload:  name,
		Governor:  gov,
		DurationS: NexusDurationS,
		Seed:      seed,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	app, ok := eng.Foreground().(*workload.FrameApp)
	if !ok {
		return nil, fmt.Errorf("experiments: workload %q is not a Nexus frame app", name)
	}
	return &NexusRun{App: app, Engine: eng.Sim()}, nil
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

// TempProfileExperiment runs both arms and returns the temperature
// profiles (Figures 1, 3 and 5 use paper.io, stickman-hook and amazon).
func TempProfileExperiment(app string, seed int64) (*TempProfile, error) {
	free, err := RunNexusApp(app, false, seed)
	if err != nil {
		return nil, err
	}
	throt, err := RunNexusApp(app, true, seed)
	if err != nil {
		return nil, err
	}
	w := free.Engine.Recording().SensorSeries()
	w.Name = "without throttling"
	v := throt.Engine.Recording().SensorSeries()
	v.Name = "with throttling"
	return &TempProfile{AppName: app, Without: w, With: v}, nil
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

// ResidencyExperiment runs both arms and returns the residency
// histogram of the given domain (GPU for Figures 2 and 4, big cluster
// for Figure 6).
func ResidencyExperiment(app string, dom platform.DomainID, seed int64) (*Residency, error) {
	free, err := RunNexusApp(app, false, seed)
	if err != nil {
		return nil, err
	}
	throt, err := RunNexusApp(app, true, seed)
	if err != nil {
		return nil, err
	}
	freqs := free.Engine.Platform().Domain(dom).Table().Frequencies()
	return &Residency{
		AppName: app,
		Domain:  dom,
		FreqsHz: freqs,
		Without: free.Engine.Platform().Domain(dom).ResidencyShare(),
		With:    throt.Engine.Platform().Domain(dom).ResidencyShare(),
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

// Table1Experiment reproduces Table I: median FPS for all five apps
// with and without thermal throttling.
func Table1Experiment(seed int64) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(NexusApps))
	for _, name := range NexusApps {
		free, err := RunNexusApp(name, false, seed)
		if err != nil {
			return nil, err
		}
		throt, err := RunNexusApp(name, true, seed)
		if err != nil {
			return nil, err
		}
		wo := free.App.MedianFPS()
		wi := throt.App.MedianFPS()
		red := 0.0
		if wo > 0 {
			red = (wo - wi) / wo * 100
		}
		rows = append(rows, Table1Row{App: name, WithoutFPS: wo, WithFPS: wi, ReductionPct: red})
	}
	return rows, nil
}

// SortedShares returns (freq, share) pairs sorted by descending share;
// a debugging helper for calibration.
func SortedShares(m map[uint64]float64) []struct {
	FreqHz uint64
	Share  float64
} {
	out := make([]struct {
		FreqHz uint64
		Share  float64
	}, 0, len(m))
	for f, s := range m {
		out = append(out, struct {
			FreqHz uint64
			Share  float64
		}{f, s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Share > out[j].Share })
	return out
}
