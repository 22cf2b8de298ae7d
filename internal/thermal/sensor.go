package thermal

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/detrand"
	"repro/internal/snapbin"
)

// Sensor models an on-die temperature sensor attached to one network
// node: it samples at a fixed period, adds Gaussian noise, quantizes to
// the sensor's resolution, and can drop readings (returning the last
// good value) to model flaky sensor buses.
//
// The Nexus 6P exposes package/memory/flash sensors; the Odroid-XU3
// exposes per-big-core and GPU sensors. Both are modeled as Sensor
// instances attached to the appropriate nodes.
type Sensor struct {
	name       string
	net        *Network
	node       NodeID
	periodS    float64
	noiseStdK  float64
	resolution float64 // quantization step in K (0 = continuous)
	dropProb   float64
	rng        *rand.Rand
	src        *detrand.Source

	nextSample float64
	lastValue  float64
	haveValue  bool
	drops      int
	samples    int
}

// SensorConfig configures a Sensor.
type SensorConfig struct {
	// Name identifies the sensor in traces (e.g. "tsens_pkg").
	Name string
	// Node is the network node the sensor measures.
	Node NodeID
	// PeriodS is the sampling period in seconds (e.g. 0.01 for 100 Hz).
	PeriodS float64
	// NoiseStdK is the standard deviation of additive Gaussian noise (K).
	NoiseStdK float64
	// ResolutionK quantizes readings to multiples of this step (0 = off).
	ResolutionK float64
	// DropProb is the probability a sample is lost; the sensor then
	// repeats its last good value.
	DropProb float64
	// Seed seeds the sensor's private RNG for determinism.
	Seed int64
}

// NewSensor attaches a sensor to net. The first call to Read at or after
// time 0 produces a sample.
func NewSensor(net *Network, cfg SensorConfig) (*Sensor, error) {
	if net == nil {
		return nil, fmt.Errorf("thermal: sensor %q needs a network", cfg.Name)
	}
	if err := net.check(cfg.Node); err != nil {
		return nil, err
	}
	if cfg.PeriodS <= 0 {
		return nil, fmt.Errorf("thermal: sensor %q period must be positive, got %v", cfg.Name, cfg.PeriodS)
	}
	if cfg.DropProb < 0 || cfg.DropProb >= 1 {
		return nil, fmt.Errorf("thermal: sensor %q drop probability must be in [0,1), got %v", cfg.Name, cfg.DropProb)
	}
	if cfg.NoiseStdK < 0 {
		return nil, fmt.Errorf("thermal: sensor %q noise must be >= 0, got %v", cfg.Name, cfg.NoiseStdK)
	}
	src := detrand.New(cfg.Seed)
	return &Sensor{
		name:       cfg.Name,
		net:        net,
		node:       cfg.Node,
		periodS:    cfg.PeriodS,
		noiseStdK:  cfg.NoiseStdK,
		resolution: cfg.ResolutionK,
		dropProb:   cfg.DropProb,
		rng:        rand.New(src),
		src:        src,
	}, nil
}

// Name returns the sensor's name.
func (s *Sensor) Name() string { return s.name }

// Read returns the sensor value (Kelvin) as of simulation time nowS.
// New samples are taken when nowS crosses the next sampling instant;
// between samples the previous reading is held (zero-order hold), which
// is how governor code observes real thermal zones.
func (s *Sensor) Read(nowS float64) (float64, error) {
	if nowS+1e-12 >= s.nextSample || !s.haveValue {
		truth, err := s.net.Temperature(s.node)
		if err != nil {
			return 0, err
		}
		s.samples++
		// Schedule strictly periodic sampling aligned to period multiples.
		for s.nextSample <= nowS+1e-12 {
			s.nextSample += s.periodS
		}
		if s.haveValue && s.dropProb > 0 && s.rng.Float64() < s.dropProb {
			s.drops++
			return s.lastValue, nil
		}
		v := truth
		if s.noiseStdK > 0 {
			v += s.rng.NormFloat64() * s.noiseStdK
		}
		if s.resolution > 0 {
			v = math.Round(v/s.resolution) * s.resolution
		}
		s.lastValue = v
		s.haveValue = true
	}
	return s.lastValue, nil
}

// Held returns the reading (Kelvin) the sensor currently holds — the
// value the last Read returned — without sampling: unlike Read it never
// advances the sample clock or the noise stream. It is 0 before the
// first Read.
func (s *Sensor) Held() float64 { return s.lastValue }

// SaveState serializes the sensor's mutable state — the sample clock,
// held value, counters, and the RNG stream position.
func (s *Sensor) SaveState(w *snapbin.Writer) {
	seed, draws := s.src.State()
	w.PutI64(seed)
	w.PutU64(draws)
	w.PutF64(s.nextSample)
	w.PutF64(s.lastValue)
	w.PutBool(s.haveValue)
	w.PutInt(s.drops)
	w.PutInt(s.samples)
}

// LoadState restores state saved by SaveState. The existing rand.Rand
// keeps its pointer: repositioning the source in place is enough
// because the generator wrapper holds no stream state of its own for
// the draw kinds the sensor uses.
func (s *Sensor) LoadState(r *snapbin.Reader) error {
	seed := r.I64()
	draws := r.Draws()
	nextSample := r.F64()
	lastValue := r.F64()
	haveValue := r.Bool()
	drops := r.Int()
	samples := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("thermal: sensor %q: %w", s.name, err)
	}
	s.src.Restore(seed, draws)
	s.nextSample = nextSample
	s.lastValue = lastValue
	s.haveValue = haveValue
	s.drops = drops
	s.samples = samples
	return nil
}

// CheckClock rejects a restored next sampling instant the sensor could
// not hold at engine time nowS: sampling times start at 0 and a read
// schedules the next one at most a period (plus a microsecond of clock
// rounding) after the reading's time, so one outside that range, or not
// finite, would make the next Read chase it period by period.
func (s *Sensor) CheckClock(nowS float64) error {
	if !(s.nextSample >= 0 && s.nextSample <= nowS+s.periodS+1e-6) {
		return fmt.Errorf("thermal: sensor %q: next sample at %v s outside [0, %v] s", s.name, s.nextSample, nowS+s.periodS)
	}
	return nil
}

// Drops reports how many samples were lost to injected failures.
func (s *Sensor) Drops() int { return s.drops }
