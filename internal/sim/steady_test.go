package sim_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/snapbin"
	"repro/internal/thermal"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// tickOf is the index of the period-long tick nowS falls in. Every
// scripted component below is a pure function of it, so it needs no
// snapshot state.
func tickOf(nowS, periodS float64) int { return int(math.Floor(nowS/periodS + 1e-9)) }

// scriptedApp demands a fixed CPU rate and a GPU rate that alternates
// between gpuHz[0] and gpuHz[1] every gpuPeriodS (a fixed rate when
// gpuPeriodS is 0).
type scriptedApp struct {
	cpuHz      float64
	gpuHz      [2]float64
	gpuPeriodS float64
}

func (a *scriptedApp) Name() string { return "scripted" }

func (a *scriptedApp) Demand(nowS float64) workload.Demand {
	gpu := a.gpuHz[0]
	if a.gpuPeriodS > 0 && tickOf(nowS, a.gpuPeriodS)%2 == 1 {
		gpu = a.gpuHz[1]
	}
	return workload.Demand{CPUHz: a.cpuHz, GPUHz: gpu}
}

func (a *scriptedApp) Advance(float64, float64, workload.Resources) {}
func (a *scriptedApp) SaveState(*snapbin.Writer)                    {}
func (a *scriptedApp) LoadState(*snapbin.Reader) error              { return nil }

// cyclingGov walks the domain's OPP table, one step per decision.
type cyclingGov struct{ intervalS float64 }

func (g cyclingGov) Name() string                  { return "cycling" }
func (g cyclingGov) IntervalS() float64            { return g.intervalS }
func (cyclingGov) SaveState(*snapbin.Writer)       {}
func (cyclingGov) LoadState(*snapbin.Reader) error { return nil }
func (g cyclingGov) Decide(in governor.Input, d *dvfs.Domain) uint64 {
	tab := d.Table()
	return tab.At(tickOf(in.NowS, g.intervalS) % tab.Len()).FreqHz
}

// pulseThermal acts on the big cluster on every other tick: it caps
// the cluster at its second-lowest OPP (clamping it at once) or, with
// hotplug set, takes half its cores offline; the ticks between undo
// it.
type pulseThermal struct {
	intervalS float64
	hotplug   bool
}

func (g pulseThermal) Name() string                  { return "pulse" }
func (g pulseThermal) IntervalS() float64            { return g.intervalS }
func (pulseThermal) SaveState(*snapbin.Writer)       {}
func (pulseThermal) LoadState(*snapbin.Reader) error { return nil }
func (g pulseThermal) Control(nowS, _ float64, states []thermgov.DomainState) {
	big := &states[platform.DomBig]
	on := tickOf(nowS, g.intervalS)%2 == 1
	switch {
	case g.hotplug && on:
		big.SetOnlineCores(big.Cores / 2)
	case g.hotplug:
		big.SetOnlineCores(big.Cores)
	case on:
		big.Domain.SetCap(big.Domain.Table().At(1).FreqHz)
	default:
		big.Domain.SetCap(0)
	}
}

// steadyCase builds one referee scenario; moved reports whether the
// memo key the case targets actually changed during the run.
type steadyCase struct {
	name   string
	config func(t *testing.T) sim.Config
	moved  func(e *sim.Engine) bool
}

// scriptedConfig runs two scripted apps on the odroid with every
// domain pinned at its maximum frequency, so only what the case
// scripts moves a memo key.
func scriptedConfig(gpuPeriodS float64) sim.Config {
	return sim.Config{
		Platform: platform.OdroidXU3(5),
		Apps: []sim.AppSpec{
			{App: &scriptedApp{cpuHz: 6e9, gpuHz: [2]float64{150e6, 420e6}, gpuPeriodS: gpuPeriodS}, PID: 1, Cluster: sched.Big, Threads: 4},
			{App: &scriptedApp{cpuHz: 0.4e9, gpuHz: [2]float64{200e6, 200e6}}, PID: 2, Cluster: sched.Little, Threads: 1},
		},
		Governors: map[platform.DomainID]governor.Governor{
			platform.DomLittle: governor.Performance{},
			platform.DomBig:    governor.Performance{},
			platform.DomGPU:    governor.Performance{},
		},
		DisableRecording: true,
	}
}

func steadyCases() []steadyCase {
	return []steadyCase{
		{
			name:   "gpu-demand",
			config: func(*testing.T) sim.Config { return scriptedConfig(0.04) },
			moved:  func(*sim.Engine) bool { return true },
		},
		{
			name: "gpu-dvfs",
			config: func(*testing.T) sim.Config {
				cfg := scriptedConfig(0)
				cfg.Governors[platform.DomGPU] = cyclingGov{intervalS: 0.05}
				return cfg
			},
			moved: func(e *sim.Engine) bool { return e.Platform().Domain(platform.DomGPU).Transitions() > 10 },
		},
		{
			name: "thermal-cap",
			config: func(*testing.T) sim.Config {
				cfg := scriptedConfig(0)
				// Off the governors' 100 ms beat, so the performance
				// governor raises the clock again between clamps.
				cfg.Thermal = pulseThermal{intervalS: 0.15}
				return cfg
			},
			moved: func(e *sim.Engine) bool { return e.Platform().Domain(platform.DomBig).Transitions() > 10 },
		},
		{
			name: "hotplug",
			config: func(*testing.T) sim.Config {
				cfg := scriptedConfig(0)
				cfg.Thermal = pulseThermal{intervalS: 0.1, hotplug: true}
				return cfg
			},
			moved: func(e *sim.Engine) bool {
				return e.Platform().OnlineCores(platform.DomBig) < e.Platform().Cores(platform.DomBig)
			},
		},
		{
			name: "appaware-migration",
			config: func(t *testing.T) sim.Config {
				cfg := batchTestConfig(t, "odroid", 3, armAppAware)
				cfg.DisableRecording = true
				return cfg
			},
			moved: func(e *sim.Engine) bool { return e.Scheduler().Migrations() > 0 },
		},
	}
}

// TestSteadyStepMatchesFreshStep referees the step-input memo without
// a switch to turn it off: engine A steps as usual, while its twin B
// round-trips through Snapshot and Restore before every step — Restore
// invalidates the memo, so every step of B is fresh. Every 100 steps
// the node temperatures, rail energies, power windows and published
// samples of both must match bit for bit, and A must have replayed the
// memo on at least 95% of its steps.
func TestSteadyStepMatchesFreshStep(t *testing.T) {
	const steps = 3000
	for _, tc := range steadyCases() {
		t.Run(tc.name, func(t *testing.T) {
			capA, capB := &captureObserver{}, &captureObserver{}
			cfgA, cfgB := tc.config(t), tc.config(t)
			cfgA.Observers = []sim.Observer{capA}
			cfgB.Observers = []sim.Observer{capB}
			a, b := newTestEngine(t, cfgA), newTestEngine(t, cfgB)
			capA.eng, capB.eng = a, b
			for s := 1; s <= steps; s++ {
				blob, err := b.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Restore(blob); err != nil {
					t.Fatal(err)
				}
				if err := a.RunSteps(1); err != nil {
					t.Fatal(err)
				}
				if err := b.RunSteps(1); err != nil {
					t.Fatal(err)
				}
				if s%100 == 0 {
					compareEngines(t, s, a, b)
				}
			}
			compareTraces(t, capB.samples, capA.samples)
			if !tc.moved(a) {
				t.Fatalf("the scenario never moved the memo key it targets")
			}
			if got := sim.SteadySteps(b); got != 0 {
				t.Fatalf("twin B replayed the memo on %d steps, want every step fresh", got)
			}
			if got := sim.SteadySteps(a); got < steps*95/100 {
				t.Fatalf("A replayed the memo on %d of %d steps, want at least 95%%", got, steps)
			}
		})
	}
}

// compareEngines requires a and b to agree bit for bit on every node
// temperature, every rail's energy and both power windows.
func compareEngines(t *testing.T, step int, a, b *sim.Engine) {
	t.Helper()
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	na, nb := a.Platform().Net, b.Platform().Net
	for n := 0; n < na.NumNodes(); n++ {
		ka, _ := na.Temperature(thermal.NodeID(n))
		kb, _ := nb.Temperature(thermal.NodeID(n))
		if !bitsEq(ka, kb) {
			t.Fatalf("step %d: node %d temperature: steady %v, fresh %v", step, n, ka, kb)
		}
	}
	if !bytes.Equal(meterState(a.Meter()), meterState(b.Meter())) {
		t.Fatalf("step %d: energy meter: steady %v J, fresh %v J", step, a.Meter().TotalEnergyJ(), b.Meter().TotalEnergyJ())
	}
	if da, db := a.DynamicPowerW(), b.DynamicPowerW(); !bitsEq(da, db) {
		t.Fatalf("step %d: dynamic power window: steady %v, fresh %v", step, da, db)
	}
	pa, pb := a.TaskAvgPowers(), b.TaskAvgPowers()
	for pid, wa := range pa {
		if wb, ok := pb[pid]; !ok || !bitsEq(wa, wb) {
			t.Fatalf("step %d: task %d power window: steady %v, fresh %v", step, pid, wa, wb)
		}
	}
}

// meterState is m's snapshot encoding: per-rail energy, elapsed time
// and the last sample, so equal states are bitwise equal.
func meterState(m *power.Meter) []byte {
	var w snapbin.Writer
	m.SaveState(&w)
	return w.Bytes()
}
