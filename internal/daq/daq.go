// Package daq models the external power-measurement instrument of the
// paper's Nexus 6P experiments: a National Instruments PXIe-4081 data
// acquisition system sampling total platform power at 1 kHz. The model
// adds Gaussian sensor noise and ADC quantization to the true power and
// records the resulting samples, so downstream consumers see the same
// data products a real DAQ produces.
package daq

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/detrand"
	"repro/internal/snapbin"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes a DAQ channel.
type Config struct {
	// SampleRateHz is the acquisition rate; the paper samples at 1 kHz.
	SampleRateHz float64
	// NoiseSigmaW is the standard deviation of additive Gaussian noise.
	NoiseSigmaW float64
	// ResolutionW is the ADC quantization step (0 disables quantization).
	ResolutionW float64
	// Seed seeds the channel's private noise generator.
	Seed int64
}

// DefaultConfig mirrors the paper's instrument: 1 kHz sampling with
// milliwatt-class resolution and small noise.
func DefaultConfig() Config {
	return Config{
		SampleRateHz: 1000,
		NoiseSigmaW:  0.002,
		ResolutionW:  0.001,
	}
}

// Channel is one acquisition channel. Create it with New and feed it
// the true signal with Observe; it samples on its own clock.
type Channel struct {
	cfg    Config
	rng    *rand.Rand
	src    *detrand.Source
	period float64
	n      int64 // samples taken; the next sample is at n*period
	series *trace.Series
	agg    stats.Running
}

// New validates cfg and creates a channel recording into a series with
// the given name.
func New(name string, cfg Config) (*Channel, error) {
	if cfg.SampleRateHz <= 0 || math.IsNaN(cfg.SampleRateHz) {
		return nil, fmt.Errorf("daq: sample rate must be positive, got %v", cfg.SampleRateHz)
	}
	if cfg.NoiseSigmaW < 0 || math.IsNaN(cfg.NoiseSigmaW) {
		return nil, fmt.Errorf("daq: noise sigma must be >= 0, got %v", cfg.NoiseSigmaW)
	}
	if cfg.ResolutionW < 0 || math.IsNaN(cfg.ResolutionW) {
		return nil, fmt.Errorf("daq: resolution must be >= 0, got %v", cfg.ResolutionW)
	}
	src := detrand.New(cfg.Seed)
	return &Channel{
		cfg:    cfg,
		rng:    rand.New(src),
		src:    src,
		period: 1 / cfg.SampleRateHz,
		series: trace.NewSeries(name, "W"),
	}, nil
}

// Observe presents the true signal value over the simulation interval
// [nowS, nowS+dt). The channel takes however many of its own samples
// fall inside the interval (zero-order hold of the true value within
// one simulator step, which is accurate for dt at or below the sample
// period).
func (c *Channel) Observe(nowS, dt, trueW float64) error {
	if dt <= 0 || math.IsNaN(dt) {
		return fmt.Errorf("daq: observe dt must be positive, got %v", dt)
	}
	if math.IsNaN(trueW) {
		return fmt.Errorf("daq: NaN power at t=%v", nowS)
	}
	// The sample clock is n*period with integer n, so float error cannot
	// accumulate across long runs.
	for {
		sampleT := float64(c.n) * c.period
		if sampleT >= nowS+dt-1e-12 {
			break
		}
		v := trueW
		if c.cfg.NoiseSigmaW > 0 {
			v += c.rng.NormFloat64() * c.cfg.NoiseSigmaW
		}
		if c.cfg.ResolutionW > 0 {
			v = math.Round(v/c.cfg.ResolutionW) * c.cfg.ResolutionW
		}
		c.series.MustAppend(sampleT, v)
		c.agg.Add(v)
		c.n++
	}
	return nil
}

// Series returns the recorded sample series (live; do not append).
func (c *Channel) Series() *trace.Series { return c.series }

// SampleCount reports how many samples were acquired, including those
// taken before a snapshot this channel was restored from.
func (c *Channel) SampleCount() int { return c.agg.Count() }

// MeanW reports the mean of acquired samples (0 when none).
func (c *Channel) MeanW() float64 { return c.agg.Mean() }

// MaxW reports the largest acquired sample (0 when none).
func (c *Channel) MaxW() float64 { return c.agg.Max() }

// PeriodS returns the sampling period in seconds.
func (c *Channel) PeriodS() float64 { return c.period }

// CheckClock rejects a restored sample clock the channel could not hold
// at engine time nowS: Observe leaves the next sample time n*period in
// [nowS, nowS+period), so one further than a period (and a microsecond
// of clock rounding) from that range would make the next Observe chase
// it sample by sample.
func (c *Channel) CheckClock(nowS float64) error {
	const slackS = 1e-6
	if t := float64(c.n) * c.period; c.n < 0 || t < nowS-c.period-slackS || t > nowS+c.period+slackS {
		return fmt.Errorf("daq: next sample %d at %v s is more than a period %v s from %v s", c.n, t, c.period, nowS)
	}
	return nil
}

// SaveState serializes the channel's sampling clock, noise RNG position,
// and running aggregate. The recorded series itself is not part of the
// snapshot: restored channels resume sampling with empty series storage,
// and callers that need full series continuity must re-record.
func (c *Channel) SaveState(w *snapbin.Writer) {
	seed, draws := c.src.State()
	w.PutI64(seed)
	w.PutU64(draws)
	w.PutI64(c.n)
	c.agg.SaveState(w)
}

// LoadState restores state saved by SaveState.
func (c *Channel) LoadState(r *snapbin.Reader) error {
	seed := r.I64()
	draws := r.Draws()
	n := r.I64()
	var agg stats.Running
	if err := agg.LoadState(r); err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("daq: %w", err)
	}
	// Observe advances the sample clock and the aggregate together.
	if int64(agg.Count()) != n {
		return fmt.Errorf("daq: aggregate holds %d samples, sample clock is at %d", agg.Count(), n)
	}
	c.src.Restore(seed, draws)
	c.n, c.agg = n, agg
	return nil
}
