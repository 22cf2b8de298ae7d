package governor

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/snapbin"
)

// testTable mirrors the Adreno 430 ladder used throughout the paper.
func testTable() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 180e6, VoltageV: 0.80},
		dvfs.OPP{FreqHz: 305e6, VoltageV: 0.85},
		dvfs.OPP{FreqHz: 390e6, VoltageV: 0.90},
		dvfs.OPP{FreqHz: 450e6, VoltageV: 0.95},
		dvfs.OPP{FreqHz: 510e6, VoltageV: 1.00},
		dvfs.OPP{FreqHz: 600e6, VoltageV: 1.075},
	)
}

func testDomain(t *testing.T) *dvfs.Domain {
	t.Helper()
	d, err := dvfs.NewDomain("gpu", testTable(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInputLoad(t *testing.T) {
	cases := []struct {
		in   Input
		want float64
	}{
		{Input{UtilCores: 2, OnlineCores: 4}, 0.5},
		{Input{UtilCores: 5, OnlineCores: 4}, 1},  // clamped high
		{Input{UtilCores: -1, OnlineCores: 4}, 0}, // clamped low
		{Input{UtilCores: 1, OnlineCores: 0}, 0},  // no cores
		// One saturated core dominates a low cluster average.
		{Input{UtilCores: 1, MaxCoreLoad: 1, OnlineCores: 4}, 1},
		{Input{UtilCores: 2, MaxCoreLoad: 0.3, OnlineCores: 4}, 0.5},
		{Input{MaxCoreLoad: 1.5, OnlineCores: 4}, 1}, // clamped high
	}
	for i, c := range cases {
		if got := c.in.Load(); got != c.want {
			t.Errorf("case %d: load = %v, want %v", i, got, c.want)
		}
	}
}

func TestPerformanceAlwaysMax(t *testing.T) {
	d := testDomain(t)
	g := Performance{}
	if g.Name() != "performance" {
		t.Error("wrong name")
	}
	for _, util := range []float64{0, 0.5, 4} {
		if got := g.Decide(Input{UtilCores: util, OnlineCores: 4}, d); got != 600e6 {
			t.Errorf("util %v: freq = %d, want max", util, got)
		}
	}
}

func TestPowersaveAlwaysMin(t *testing.T) {
	d := testDomain(t)
	g := Powersave{}
	for _, util := range []float64{0, 4} {
		if got := g.Decide(Input{UtilCores: util, OnlineCores: 4}, d); got != 180e6 {
			t.Errorf("util %v: freq = %d, want min", util, got)
		}
	}
}

func TestOndemandValidation(t *testing.T) {
	bad := []OndemandConfig{
		{UpThreshold: 0, SamplingDownFactor: 1, IntervalS: 0.02},
		{UpThreshold: 1.5, SamplingDownFactor: 1, IntervalS: 0.02},
		{UpThreshold: math.NaN(), SamplingDownFactor: 1, IntervalS: 0.02},
		{UpThreshold: 0.8, SamplingDownFactor: 0, IntervalS: 0.02},
		{UpThreshold: 0.8, SamplingDownFactor: 1, IntervalS: 0},
	}
	for i, cfg := range bad {
		if _, err := NewOndemand(cfg); err == nil {
			t.Errorf("case %d (%+v) should fail", i, cfg)
		}
	}
	if _, err := NewOndemand(DefaultOndemandConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestOndemandJumpsToMaxAboveThreshold(t *testing.T) {
	d := testDomain(t)
	g, _ := NewOndemand(DefaultOndemandConfig())
	got := g.Decide(Input{UtilCores: 3.6, OnlineCores: 4}, d) // load 0.9
	if got != 600e6 {
		t.Errorf("freq = %d, want max on load 0.9 >= 0.8", got)
	}
}

func TestOndemandScalesProportionallyBelowThreshold(t *testing.T) {
	d := testDomain(t)
	g, _ := NewOndemand(DefaultOndemandConfig())
	// Current frequency is table min (180 MHz). Load 0.5 → busy 90 MHz
	// per core → want 112.5 MHz → Ceil → 180 MHz.
	if got := g.Decide(Input{UtilCores: 2, OnlineCores: 4}, d); got != 180e6 {
		t.Errorf("freq = %d, want 180MHz at low busy", got)
	}
	// Run the domain at 510 MHz: load 0.5 → busy 255 MHz → want
	// 318.75 MHz → Ceil → 390 MHz.
	d.Request(0, 510e6)
	if got := g.Decide(Input{UtilCores: 2, OnlineCores: 4}, d); got != 390e6 {
		t.Errorf("freq = %d, want 390MHz", got)
	}
}

func TestOndemandZeroLoadPicksMin(t *testing.T) {
	d := testDomain(t)
	d.Request(0, 600e6)
	g, _ := NewOndemand(DefaultOndemandConfig())
	if got := g.Decide(Input{UtilCores: 0, OnlineCores: 4}, d); got != 180e6 {
		t.Errorf("freq = %d, want min at zero load", got)
	}
}

func TestOndemandSamplingDownFactorHoldsMax(t *testing.T) {
	d := testDomain(t)
	cfg := DefaultOndemandConfig()
	cfg.SamplingDownFactor = 3
	g, _ := NewOndemand(cfg)
	if got := g.Decide(Input{UtilCores: 4, OnlineCores: 4}, d); got != 600e6 {
		t.Fatalf("expected up-jump, got %d", got)
	}
	// Load drops to zero; the governor must hold max for 3 intervals.
	for i := 0; i < 3; i++ {
		if got := g.Decide(Input{UtilCores: 0, OnlineCores: 4}, d); got != 600e6 {
			t.Fatalf("hold interval %d: freq = %d, want max", i, got)
		}
	}
	if got := g.Decide(Input{UtilCores: 0, OnlineCores: 4}, d); got != 180e6 {
		t.Errorf("after hold: freq = %d, want min", got)
	}
}

func TestInteractiveValidation(t *testing.T) {
	bad := []InteractiveConfig{
		{TargetLoad: 0, IntervalS: 0.02},
		{TargetLoad: 1.2, IntervalS: 0.02},
		{TargetLoad: 0.9, IntervalS: 0},
		{TargetLoad: 0.9, IntervalS: 0.02, BoostHoldS: -1},
		{TargetLoad: 0.9, IntervalS: 0.02, AboveHispeedDelayS: -1},
	}
	for i, cfg := range bad {
		if _, err := NewInteractive(cfg); err == nil {
			t.Errorf("case %d (%+v) should fail", i, cfg)
		}
	}
	if _, err := NewInteractive(DefaultInteractiveConfig()); err != nil {
		t.Errorf("default config should validate: %v", err)
	}
}

func TestInteractiveTouchBoost(t *testing.T) {
	d := testDomain(t)
	cfg := DefaultInteractiveConfig()
	cfg.HispeedFreqHz = 510e6
	g, _ := NewInteractive(cfg)
	// Idle, no touch: min frequency.
	if got := g.Decide(Input{NowS: 0, UtilCores: 0, OnlineCores: 4}, d); got != 180e6 {
		t.Fatalf("idle freq = %d, want min", got)
	}
	// Touch at t=1: boost to hispeed despite zero load.
	if got := g.Decide(Input{NowS: 1, UtilCores: 0, OnlineCores: 4, Touch: true}, d); got != 510e6 {
		t.Errorf("touch freq = %d, want hispeed 510MHz", got)
	}
	// Boost still held at t=1.3 (hold 0.5 s).
	if got := g.Decide(Input{NowS: 1.3, UtilCores: 0, OnlineCores: 4}, d); got != 510e6 {
		t.Errorf("held freq = %d, want hispeed", got)
	}
	// Boost expired at t=1.6.
	if got := g.Decide(Input{NowS: 1.6, UtilCores: 0, OnlineCores: 4}, d); got != 180e6 {
		t.Errorf("expired freq = %d, want min", got)
	}
}

func TestInteractiveAboveHispeedDelay(t *testing.T) {
	d := testDomain(t)
	d.Request(0, 510e6)
	cfg := DefaultInteractiveConfig()
	cfg.HispeedFreqHz = 510e6
	cfg.AboveHispeedDelayS = 0.04
	g, _ := NewInteractive(cfg)
	// Full load at 510 MHz wants 600 MHz but must wait out the delay.
	in := Input{NowS: 0, UtilCores: 4, OnlineCores: 4}
	if got := g.Decide(in, d); got != 510e6 {
		t.Fatalf("first ask = %d, want clamped to hispeed", got)
	}
	in.NowS = 0.02
	if got := g.Decide(in, d); got != 510e6 {
		t.Errorf("at 20ms: freq = %d, still within delay", got)
	}
	in.NowS = 0.05
	if got := g.Decide(in, d); got != 600e6 {
		t.Errorf("after delay: freq = %d, want 600MHz", got)
	}
}

func TestInteractiveTracksTargetLoad(t *testing.T) {
	d := testDomain(t)
	d.Request(0, 390e6)
	g, _ := NewInteractive(DefaultInteractiveConfig())
	// Load 0.5 at 390 MHz → busy 195 MHz → /0.9 = 216.7 MHz → Ceil 305.
	if got := g.Decide(Input{NowS: 5, UtilCores: 2, OnlineCores: 4}, d); got != 305e6 {
		t.Errorf("freq = %d, want 305MHz", got)
	}
}

func TestInteractiveHispeedDefaultsToMax(t *testing.T) {
	d := testDomain(t)
	g, _ := NewInteractive(DefaultInteractiveConfig())
	if got := g.Decide(Input{NowS: 0, Touch: true, OnlineCores: 4}, d); got != 600e6 {
		t.Errorf("touch freq = %d, want table max when hispeed unset", got)
	}
}

// Property: every governor returns a frequency that exists in the
// domain's OPP table, for any input.
func TestGovernorsAlwaysReturnTableFrequencies(t *testing.T) {
	table := testTable()
	d, _ := dvfs.NewDomain("gpu", table, 0)
	od, _ := NewOndemand(DefaultOndemandConfig())
	ia, _ := NewInteractive(DefaultInteractiveConfig())
	cons, _ := NewConservative(DefaultConservativeConfig())
	govs := []Governor{Performance{}, Powersave{}, od, cons, ia}
	f := func(util, maxLoad float64, cores uint8, now float64, touch bool) bool {
		in := Input{
			NowS:        math.Abs(math.Mod(now, 1e6)),
			UtilCores:   math.Mod(util, 16),
			MaxCoreLoad: math.Mod(maxLoad, 2),
			OnlineCores: int(cores%8) + 1,
			Touch:       touch,
		}
		for _, g := range govs {
			freq := g.Decide(in, d)
			if table.IndexOf(freq) < 0 {
				t.Logf("%s returned %d Hz, not an OPP", g.Name(), freq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGovernorIntervals(t *testing.T) {
	od, _ := NewOndemand(DefaultOndemandConfig())
	ia, _ := NewInteractive(DefaultInteractiveConfig())
	cons, _ := NewConservative(DefaultConservativeConfig())
	for _, g := range []Governor{Performance{}, Powersave{}, od, cons, ia} {
		if g.IntervalS() <= 0 {
			t.Errorf("%s interval = %v, want > 0", g.Name(), g.IntervalS())
		}
	}
}

// snapshotter is the snapshot interface the sim layer requires of
// every governor.
type snapshotter interface {
	Governor
	SaveState(w *snapbin.Writer)
	LoadState(r *snapbin.Reader) error
}

// TestGovernorStateRoundTrip drives each governor partway through a
// load trace, saves it, loads the state into a fresh governor, and
// requires the copy to re-encode to the saved bytes and to decide the
// rest of the trace exactly as the original. A truncated state must
// fail to load.
func TestGovernorStateRoundTrip(t *testing.T) {
	builds := map[string]func() snapshotter{
		"performance": func() snapshotter { return Performance{} },
		"powersave":   func() snapshotter { return Powersave{} },
		"conservative": func() snapshotter {
			g, _ := NewConservative(DefaultConservativeConfig())
			return g
		},
		"ondemand": func() snapshotter {
			cfg := DefaultOndemandConfig()
			cfg.SamplingDownFactor = 4
			g, _ := NewOndemand(cfg)
			return g
		},
		"interactive": func() snapshotter {
			cfg := DefaultInteractiveConfig()
			cfg.HispeedFreqHz = 390e6
			g, _ := NewInteractive(cfg)
			return g
		},
	}
	// Full load from step 14 on holds the save point (step 17) inside
	// the interactive governor's above-hispeed delay.
	var trace []Input
	for i := 0; i < 40; i++ {
		in := Input{
			NowS:        float64(i) * 0.02,
			UtilCores:   float64(i%7) * 0.6,
			MaxCoreLoad: float64(i%5) / 4,
			OnlineCores: 4,
			Touch:       i%13 == 3,
		}
		if i >= 14 && i < 24 {
			in.MaxCoreLoad = 1
		}
		trace = append(trace, in)
	}
	save := func(g snapshotter) []byte {
		var w snapbin.Writer
		g.SaveState(&w)
		return bytes.Clone(w.Bytes())
	}
	for name, build := range builds {
		src, d := build(), testDomain(t)
		for _, in := range trace[:17] {
			d.Request(in.NowS, src.Decide(in, d))
		}
		saved := save(src)
		dst := build()
		if err := dst.LoadState(snapbin.NewReader(saved)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(save(dst), saved) {
			t.Errorf("%s: loaded state re-encodes differently", name)
		}
		for _, in := range trace[17:] {
			want := src.Decide(in, d)
			if got := dst.Decide(in, d); got != want {
				t.Fatalf("%s at %v s: restored copy decides %d Hz, original %d Hz", name, in.NowS, got, want)
			}
			d.Request(in.NowS, want)
		}
		for cut := 0; cut < len(saved); cut++ {
			if err := build().LoadState(snapbin.NewReader(saved[:cut])); err == nil {
				t.Errorf("%s: state cut at %d of %d bytes loaded", name, cut, len(saved))
			}
		}
	}
}
