// Package governor implements the CPUfreq frequency governors the paper
// exercises: performance, powersave, ondemand, conservative and the
// Android interactive governor with touch boost. Governors observe domain load
// and request target frequencies; thermal caps are applied inside the
// dvfs.Domain, which is exactly the layering that makes the paper's
// "frequency governor fights thermal governor" observation possible.
package governor

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
)

// Input is what a governor sees at a decision point.
type Input struct {
	// NowS is the simulation time.
	NowS float64
	// UtilCores is the domain's busy capacity over the last interval in
	// units of cores (0..OnlineCores).
	UtilCores float64
	// MaxCoreLoad is the busy fraction of the busiest core in [0,1].
	// Linux governors evaluate the highest per-CPU load in a policy, not
	// the cluster average — a single saturated core must drive the whole
	// cluster to its maximum frequency (the BML scenario of Section
	// IV-C depends on this).
	MaxCoreLoad float64
	// OnlineCores is the number of online cores in the domain (1 for a
	// GPU domain).
	OnlineCores int
	// Touch reports a user interaction since the last decision; the
	// interactive governor boosts on it.
	Touch bool
}

// Load returns the governor-relevant load in [0,1]: the busiest core's
// load, but never below the cluster average.
func (in Input) Load() float64 {
	l := in.MaxCoreLoad
	if in.OnlineCores > 0 {
		if avg := in.UtilCores / float64(in.OnlineCores); avg > l {
			l = avg
		}
	}
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// Governor selects frequencies for one dvfs.Domain.
type Governor interface {
	// Name identifies the governor ("ondemand", "interactive", ...).
	Name() string
	// IntervalS is the governor's decision period in seconds.
	IntervalS() float64
	// Decide returns the frequency to request given the input. The
	// domain is read-only context (current frequency, OPP table); the
	// caller performs the actual Request so caps apply uniformly.
	Decide(in Input, d *dvfs.Domain) uint64
}

// Performance pins the domain at its maximum frequency, the governor
// the paper's "without throttling" baselines disable thermal control
// against.
type Performance struct{}

// Name implements Governor.
func (Performance) Name() string { return "performance" }

// IntervalS implements Governor.
func (Performance) IntervalS() float64 { return 0.1 }

// Decide implements Governor.
func (Performance) Decide(in Input, d *dvfs.Domain) uint64 {
	return d.Table().Max().FreqHz
}

// Powersave pins the domain at its minimum frequency.
type Powersave struct{}

// Name implements Governor.
func (Powersave) Name() string { return "powersave" }

// IntervalS implements Governor.
func (Powersave) IntervalS() float64 { return 0.1 }

// Decide implements Governor.
func (Powersave) Decide(in Input, d *dvfs.Domain) uint64 {
	return d.Table().Min().FreqHz
}

// OndemandConfig parameterizes the ondemand governor.
type OndemandConfig struct {
	// UpThreshold is the load above which the governor jumps to the
	// maximum frequency (Linux default 0.80).
	UpThreshold float64
	// SamplingDownFactor delays down-scaling: after a jump to max the
	// governor holds for this many intervals before considering lower
	// frequencies (Linux default 1; mobile vendors often raise it).
	SamplingDownFactor int
	// IntervalS is the sampling period (Linux default ~10-100 ms).
	IntervalS float64
}

// DefaultOndemandConfig mirrors the Linux defaults.
func DefaultOndemandConfig() OndemandConfig {
	return OndemandConfig{UpThreshold: 0.80, SamplingDownFactor: 1, IntervalS: 0.02}
}

// Ondemand is the classic Linux ondemand governor: jump to max above
// the up-threshold, otherwise pick the lowest frequency that keeps load
// below the threshold.
type Ondemand struct {
	cfg  OndemandConfig
	hold int // intervals remaining at max after an up-jump
}

// NewOndemand validates cfg and builds the governor.
func NewOndemand(cfg OndemandConfig) (*Ondemand, error) {
	if cfg.UpThreshold <= 0 || cfg.UpThreshold > 1 || math.IsNaN(cfg.UpThreshold) {
		return nil, fmt.Errorf("governor: ondemand up-threshold must be in (0,1], got %v", cfg.UpThreshold)
	}
	if cfg.SamplingDownFactor < 1 {
		return nil, fmt.Errorf("governor: ondemand sampling-down factor must be >= 1, got %d", cfg.SamplingDownFactor)
	}
	if cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("governor: ondemand interval must be positive, got %v", cfg.IntervalS)
	}
	return &Ondemand{cfg: cfg}, nil
}

// Name implements Governor.
func (*Ondemand) Name() string { return "ondemand" }

// IntervalS implements Governor.
func (o *Ondemand) IntervalS() float64 { return o.cfg.IntervalS }

// Decide implements Governor.
func (o *Ondemand) Decide(in Input, d *dvfs.Domain) uint64 {
	load := in.Load()
	table := d.Table()
	if load >= o.cfg.UpThreshold {
		o.hold = o.cfg.SamplingDownFactor
		return table.Max().FreqHz
	}
	if o.hold > 0 {
		o.hold--
		return table.Max().FreqHz
	}
	// Busy cycles per core this interval, expressed at the current
	// frequency; choose the lowest OPP that keeps load under threshold.
	busyHz := load * float64(d.CurrentHz())
	want := busyHz / o.cfg.UpThreshold
	if want <= 0 {
		return table.Min().FreqHz
	}
	return table.Ceil(uint64(want)).FreqHz
}

// InteractiveConfig parameterizes the Android interactive governor.
type InteractiveConfig struct {
	// TargetLoad is the load the governor tries to sit at (Android
	// default 0.90).
	TargetLoad float64
	// HispeedFreqHz is the frequency boosted to on touch; 0 means the
	// table maximum.
	HispeedFreqHz uint64
	// AboveHispeedDelayS is the hold before climbing past hispeed.
	AboveHispeedDelayS float64
	// BoostHoldS is how long a touch boost floors the frequency
	// (input boost duration).
	BoostHoldS float64
	// IntervalS is the sampling period (Android default 20 ms).
	IntervalS float64
}

// DefaultInteractiveConfig mirrors common Android settings.
func DefaultInteractiveConfig() InteractiveConfig {
	return InteractiveConfig{
		TargetLoad:         0.90,
		AboveHispeedDelayS: 0.04,
		BoostHoldS:         0.5,
		IntervalS:          0.02,
	}
}

// Interactive is the Android interactive governor: on user input it
// immediately boosts to the hispeed frequency and holds it for the
// boost duration; otherwise it picks the lowest frequency keeping load
// at the target, waiting above-hispeed-delay before exceeding hispeed.
// The paper's Section I singles out exactly this behavior: "the
// interactive governor sets the frequency to the highest value whenever
// it detects user interactions".
type Interactive struct {
	cfg          InteractiveConfig
	boostUntil   float64
	hispeedSince float64 // time we first wanted above hispeed; -1 idle
}

// NewInteractive validates cfg and builds the governor.
func NewInteractive(cfg InteractiveConfig) (*Interactive, error) {
	if cfg.TargetLoad <= 0 || cfg.TargetLoad > 1 || math.IsNaN(cfg.TargetLoad) {
		return nil, fmt.Errorf("governor: interactive target load must be in (0,1], got %v", cfg.TargetLoad)
	}
	if cfg.AboveHispeedDelayS < 0 || cfg.BoostHoldS < 0 {
		return nil, fmt.Errorf("governor: interactive delays must be >= 0")
	}
	if cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("governor: interactive interval must be positive, got %v", cfg.IntervalS)
	}
	return &Interactive{cfg: cfg, hispeedSince: -1}, nil
}

// Name implements Governor.
func (*Interactive) Name() string { return "interactive" }

// IntervalS implements Governor.
func (g *Interactive) IntervalS() float64 { return g.cfg.IntervalS }

// hispeed returns the boost frequency for the domain's table.
func (g *Interactive) hispeed(d *dvfs.Domain) uint64 {
	if g.cfg.HispeedFreqHz != 0 {
		return d.Table().Floor(g.cfg.HispeedFreqHz).FreqHz
	}
	return d.Table().Max().FreqHz
}

// Decide implements Governor.
func (g *Interactive) Decide(in Input, d *dvfs.Domain) uint64 {
	hispeed := g.hispeed(d)
	if in.Touch {
		g.boostUntil = in.NowS + g.cfg.BoostHoldS
	}
	load := in.Load()
	busyHz := load * float64(d.CurrentHz())
	want := d.Table().Ceil(uint64(busyHz / g.cfg.TargetLoad)).FreqHz
	if busyHz == 0 {
		want = d.Table().Min().FreqHz
	}

	// Hold above-hispeed requests until the delay has been sustained.
	if want > hispeed {
		if g.hispeedSince < 0 {
			g.hispeedSince = in.NowS
		}
		if in.NowS-g.hispeedSince < g.cfg.AboveHispeedDelayS {
			want = hispeed
		}
	} else {
		g.hispeedSince = -1
	}

	// An active boost floors the choice at hispeed.
	if in.NowS < g.boostUntil && want < hispeed {
		want = hispeed
	}
	return want
}
