package appaware

import (
	"fmt"
	"math"
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
	skinViolation := g.skinViolation(e)
	if !chipViolation && !skinViolation {
		if g.cfg.Policy == PolicyThrottle {
			g.frozenMaybeUnthrottle(nowS, e, an.StableTempK, limitK)
		} else {
			g.frozenMaybeRestore(nowS, e, an.StableTempK, limitK)
		}
		return
	}
	g.coolSince = -1

	tta := 0.0
	if chipViolation {
		horizon := g.cfg.HorizonS * 2
		if !skinViolation && g.params.ResistanceKPerW*g.params.CapacitanceJPerK/200 <= g.cfg.HorizonS/10 {
			horizon = g.cfg.HorizonS
		}
		var err error
		tta, err = g.timeToThreshold(pd, tempK, limitK, horizon)
		if err != nil || (tta > g.cfg.HorizonS && !skinViolation) {
			return
		}
	}

	if g.cfg.Policy == PolicyThrottle {
		g.frozenThrottle(nowS, e, an.StableTempK, tta)
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
	g.victims = append(g.victims, pid)
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventMigrate,
		PID:             pid,
		PredictedFixedK: an.StableTempK,
		TimeToLimitS:    tta,
	})
}

func (g frozenGovernor) frozenThrottle(nowS float64, e *sim.Engine, fixedK, tta float64) {
	dom := e.Platform().Domain(platform.DomBig)
	table := dom.Table()
	cur := dom.Cap()
	if cur == 0 {
		cur = table.Max().FreqHz
	}
	i := table.IndexOf(table.Floor(cur).FreqHz)
	if i <= 0 {
		return
	}
	dom.SetCap(table.At(i - 1).FreqHz)
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventThrottle,
		PredictedFixedK: fixedK,
		TimeToLimitS:    tta,
	})
}

func (g frozenGovernor) frozenMaybeUnthrottle(nowS float64, e *sim.Engine, fixedK, limitK float64) {
	dom := e.Platform().Domain(platform.DomBig)
	if dom.Cap() == 0 {
		return
	}
	if fixedK >= limitK-g.cfg.RestoreMarginK {
		g.coolSince = -1
		return
	}
	if g.coolSince < 0 {
		g.coolSince = nowS
		return
	}
	if g.cfg.RestoreAfterS != 0 && nowS-g.coolSince < g.cfg.RestoreAfterS {
		return
	}
	table := dom.Table()
	i := table.IndexOf(table.Floor(dom.Cap()).FreqHz)
	if i+1 >= table.Len() {
		dom.SetCap(0)
	} else {
		dom.SetCap(table.At(i + 1).FreqHz)
	}
	g.coolSince = -1
	g.events = append(g.events, Event{TimeS: nowS, Kind: EventUnthrottle, PredictedFixedK: fixedK})
}

func (g frozenGovernor) frozenMaybeRestore(nowS float64, e *sim.Engine, fixedK, limitK float64) {
	if g.cfg.RestoreAfterS == 0 || len(g.victims) == 0 {
		return
	}
	if fixedK >= limitK-g.cfg.RestoreMarginK {
		g.coolSince = -1
		return
	}
	if g.coolSince < 0 {
		g.coolSince = nowS
		return
	}
	if nowS-g.coolSince < g.cfg.RestoreAfterS {
		return
	}
	pid := g.victims[len(g.victims)-1]
	if err := e.Scheduler().Migrate(pid, sched.Big); err != nil {
		return
	}
	g.victims = g.victims[:len(g.victims)-1]
	g.coolSince = -1
	g.events = append(g.events, Event{
		TimeS:           nowS,
		Kind:            EventRestore,
		PID:             pid,
		PredictedFixedK: fixedK,
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
// reference Control, on identical engines, across both policies,
// restoration, skin limits, shared memos and limits from always-hot to
// never-reached, and requires bitwise-equal events, prediction counts
// and final temperatures.
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
	for _, limitC := range []float64{35, 50, 55, 80} {
		for _, policy := range []Policy{PolicyMigrate, PolicyThrottle} {
			for _, restore := range []float64{0, 1} {
				cfg := DefaultConfig()
				cfg.Policy = policy
				cfg.ThermalLimitK = thermal.ToKelvin(limitC)
				cfg.RestoreAfterS = restore
				cfg.RestoreMarginK = 1
				cases = append(cases, tc{
					name:  fmt.Sprintf("fast/%v/%gC/restore-%g", policy, limitC, restore),
					build: fast, cfg: cfg, shared: restore != 0, runS: 30,
				})
			}
		}
	}
	for _, limitC := range []float64{0, 50, 65} {
		for _, shared := range []bool{false, true} {
			cfg := Config{HorizonS: 30, IntervalS: 0.1, RestoreAfterS: 2, RestoreMarginK: 2}
			cfg.ThermalLimitK = thermal.ToKelvin(limitC)
			if limitC == 0 {
				cfg.ThermalLimitK = 0 // the platform's own limit
			}
			cases = append(cases, tc{
				name:  fmt.Sprintf("odroid/%gC/shared-%v", limitC, shared),
				build: odroid, cfg: cfg, shared: shared, runS: 60,
			})
		}
	}
	for _, skinC := range []float64{33, 37} {
		for _, policy := range []Policy{PolicyMigrate, PolicyThrottle} {
			cfg := DefaultConfig()
			cfg.Policy = policy
			cfg.SkinLimitK = thermal.ToKelvin(skinC)
			cfg.RestoreAfterS = 1
			cases = append(cases, tc{
				name:  fmt.Sprintf("nexus/%v/skin-%gC", policy, skinC),
				build: nexus, cfg: cfg, shared: true, runS: 40,
			})
		}
	}

	seen := map[EventKind]int{}
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
			if len(ge) != len(we) {
				t.Fatalf("%d events, frozen %d", len(ge), len(we))
			}
			for i := range ge {
				if !sameEvent(ge[i], we[i]) {
					t.Fatalf("event %d: %+v, frozen %+v", i, ge[i], we[i])
				}
				seen[ge[i].Kind]++
			}
			gt, wt := eGot.Platform().Net.Temperatures(), eWant.Platform().Net.Temperatures()
			for i := range gt {
				if math.Float64bits(gt[i]) != math.Float64bits(wt[i]) {
					t.Fatalf("node %d ends at %v K, frozen %v K", i, gt[i], wt[i])
				}
			}
		})
	}
	for _, k := range []EventKind{EventMigrate, EventRestore, EventThrottle, EventUnthrottle} {
		if seen[k] == 0 {
			t.Errorf("no case fired a %v event; the comparison does not cover it", k)
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
