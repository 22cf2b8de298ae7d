package appaware

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stability"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// frozenGovernor is the reference Control: every tick runs the full
// fixed-point analysis, every chip violation the RK4 time-to-limit
// integration, and every event logs that tick's analysis. It shares
// the Governor's state and helpers, so Events and Predictions of the
// two compare directly. Keep it as it is: it is the oracle the
// certified fast path is held to.
type frozenGovernor struct{ *Governor }

func (g frozenGovernor) Control(nowS float64, e *sim.Engine) {
	if !g.haveP {
		p, err := e.Platform().StabilityParams()
		if err != nil {
			return
		}
		g.params = p
		g.haveP = true
	}
	pd := e.DynamicPowerW()
	if pd <= 0 {
		return
	}
	an, err := g.analyze(pd)
	if err != nil {
		return
	}
	g.predictions++
	limitK := g.LimitK(e)
	tempK := e.SensorTempK()

	chipViolation := an.Class == stability.Runaway ||
		(an.Class != stability.Runaway && an.StableTempK > limitK)
	if !chipViolation {
		return
	}

	horizon := g.cfg.HorizonS * 2
	if g.params.ResistanceKPerW*g.params.CapacitanceJPerK/200 <= g.cfg.HorizonS/10 {
		horizon = g.cfg.HorizonS
	}
	tta, err := g.timeToThreshold(pd, tempK, limitK, horizon)
	if err != nil || tta > g.cfg.HorizonS {
		return
	}

	if g.avgPowerEng != e {
		g.avgPowerFn = e.TaskAvgPowerW
		g.avgPowerEng = e
	}
	pid, ok := e.Scheduler().MostPowerHungryFunc(sched.Big, g.avgPowerFn)
	if !ok {
		return
	}
	if err := e.Scheduler().Migrate(pid, sched.Little); err != nil {
		return
	}
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventMigrate,
		PID:             pid,
		PredictedFixedK: an.StableTempK,
		TimeToLimitS:    tta,
	})
}

// presetEngine runs a real-time GPU game plus a CPU hog on a preset
// platform, the shape of the paper's Section IV-C scenario.
func presetEngine(t *testing.T, plat *platform.Platform, ctl sim.Controller) *sim.Engine {
	t.Helper()
	bml := workload.NewBML()
	bml.ExecuteRatio = 0
	e, err := sim.New(sim.Config{
		Platform: plat,
		Apps: []sim.AppSpec{
			{App: workload.PaperIO(1), PID: 1, Cluster: sched.Big, Threads: 2, RealTime: true},
			{App: bml, PID: 2, Cluster: sched.Big, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: governor.Performance{},
			platform.DomBig:    governor.Performance{},
			platform.DomGPU:    governor.Performance{},
		},
		Controller: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestControlMatchesFrozen steps the governor beside the frozen
// reference Control, on identical engines, across three platforms,
// shared memos and limits from always-hot to never-reached, and
// requires bitwise-equal events, prediction counts and final
// temperatures.
func TestControlMatchesFrozen(t *testing.T) {
	type engineFn func(t *testing.T, ctl sim.Controller) *sim.Engine
	fast := func(t *testing.T, ctl sim.Controller) *sim.Engine {
		e, _ := buildEngine(t, ctl)
		return e
	}
	odroid := func(t *testing.T, ctl sim.Controller) *sim.Engine {
		return presetEngine(t, platform.OdroidXU3(1), ctl)
	}
	nexus := func(t *testing.T, ctl sim.Controller) *sim.Engine {
		return presetEngine(t, platform.Nexus6P(1), ctl)
	}
	type tc struct {
		name   string
		build  engineFn
		cfg    Config
		shared bool
		runS   float64
	}
	var cases []tc
	add := func(plat string, build engineFn, cfg Config, limitsC []float64, runS float64) {
		for _, limitC := range limitsC {
			for _, shared := range []bool{false, true} {
				cfg.ThermalLimitK = thermal.ToKelvin(limitC)
				if limitC == 0 {
					cfg.ThermalLimitK = 0 // the platform's own limit
				}
				cases = append(cases, tc{
					name:  fmt.Sprintf("%s/%gC/shared-%v", plat, limitC, shared),
					build: build, cfg: cfg, shared: shared, runS: runS,
				})
			}
		}
	}
	add("fast", fast, DefaultConfig(), []float64{35, 45, 50, 55, 65, 80}, 30)
	add("odroid", odroid, Config{HorizonS: 30, IntervalS: 0.1}, []float64{0, 35, 40, 45, 50, 65}, 60)
	add("nexus", nexus, Config{HorizonS: 30, IntervalS: 0.1}, []float64{0, 30, 35, 40, 50}, 40)

	migrated := map[string]int{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := MustNew(c.cfg), MustNew(c.cfg)
			if c.shared {
				got.ShareTransientCache(stability.NewTransientCache())
				want.ShareTransientCache(stability.NewTransientCache())
			}
			eGot, eWant := c.build(t, got), c.build(t, frozenGovernor{want})
			if err := eGot.Run(c.runS); err != nil {
				t.Fatal(err)
			}
			if err := eWant.Run(c.runS); err != nil {
				t.Fatal(err)
			}
			if got.Predictions() != want.Predictions() || got.Predictions() == 0 {
				t.Fatalf("predictions %d, frozen %d", got.Predictions(), want.Predictions())
			}
			ge, we := got.Events(), want.Events()
			migrated[strings.Split(c.name, "/")[0]] += len(ge)
			if len(ge) != len(we) {
				t.Fatalf("%d events, frozen %d", len(ge), len(we))
			}
			for i := range ge {
				if !sameEvent(ge[i], we[i]) {
					t.Fatalf("event %d: %+v, frozen %+v", i, ge[i], we[i])
				}
			}
			gt, wt := eGot.Platform().Net.Temperatures(), eWant.Platform().Net.Temperatures()
			for i := range gt {
				if math.Float64bits(gt[i]) != math.Float64bits(wt[i]) {
					t.Fatalf("node %d ends at %v K, frozen %v K", i, gt[i], wt[i])
				}
			}
		})
	}
	for _, plat := range []string{"fast", "odroid", "nexus"} {
		if migrated[plat] == 0 {
			t.Errorf("no %s case migrated; the comparison covers no decision there", plat)
		}
	}
}

// sameEvent compares two events bit for bit.
func sameEvent(a, b Event) bool {
	return math.Float64bits(a.TimeS) == math.Float64bits(b.TimeS) &&
		a.Kind == b.Kind && a.PID == b.PID &&
		math.Float64bits(a.PredictedFixedK) == math.Float64bits(b.PredictedFixedK) &&
		math.Float64bits(a.TimeToLimitS) == math.Float64bits(b.TimeToLimitS)
}
