package sim

import (
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/trace"
)

// Sample is one periodic observation of a running simulation, published
// to every registered Observer once per TracePeriodS. It carries the
// same quantities the engine's built-in traces record: true node
// temperatures, the sensed temperature, per-rail power and per-domain
// frequencies.
//
// The engine reuses the sample's slices between publishes; observers
// that retain data past the OnSample call must copy it.
type Sample struct {
	// TimeS is the simulation time of the observation.
	TimeS float64
	// NodeTempK holds true node temperatures (K), indexed by
	// thermal.NodeID; Platform.NodeNames gives the matching names.
	NodeTempK []float64
	// MaxTempK is the hottest node temperature (K).
	MaxTempK float64
	// SensorK is the governor-facing sensed temperature (K).
	SensorK float64
	// TotalW is the total platform power (W) of the current step.
	TotalW float64
	// RailW holds per-rail power (W), indexed by power.Rail.
	RailW []float64
	// FreqHz holds per-domain frequencies, indexed by platform.DomainID.
	FreqHz []uint64
}

// Observer consumes periodic samples from a running engine. The step
// loop builds and publishes samples on the trace period regardless of
// how many observers are attached (even zero), so registering or
// removing observers can never change the simulation's dynamics — a
// requirement of the bitwise-determinism invariant.
//
// An OnSample error aborts the run.
type Observer interface {
	// OnSample receives one observation. The sample's slices are reused
	// by the engine; copy anything retained.
	OnSample(s *Sample) error
}

// RecordingSink is the built-in Observer materializing every sample
// into trace.Series buffers — the engine's historical getter-based
// trace API, now expressed as one observer among possibly many. Runs
// that only need streaming aggregates can disable it
// (Config.DisableRecording) and attach constant-memory observers
// instead.
type RecordingSink struct {
	nodeNames []string
	temp      map[string]*trace.Series
	maxTemp   *trace.Series
	sensor    *trace.Series
	total     *trace.Series
	rail      map[power.Rail]*trace.Series
	freq      map[platform.DomainID]*trace.Series
}

// NewRecordingSink builds a sink with empty series for every node,
// rail and domain of the platform.
func NewRecordingSink(p *platform.Platform) *RecordingSink {
	r := &RecordingSink{
		temp:    make(map[string]*trace.Series),
		maxTemp: trace.NewSeries("temp:max", "°C"),
		sensor:  trace.NewSeries("sensor", "°C"),
		total:   trace.NewSeries("power:total", "W"),
		rail:    make(map[power.Rail]*trace.Series),
		freq:    make(map[platform.DomainID]*trace.Series),
	}
	for i := 0; i < p.Net.NumNodes(); i++ {
		name := p.Net.NodeName(thermal.NodeID(i))
		r.nodeNames = append(r.nodeNames, name)
		r.temp[name] = trace.NewSeries("temp:"+name, "°C")
	}
	for _, rl := range power.Rails() {
		r.rail[rl] = trace.NewSeries("power:"+rl.String(), "W")
	}
	for _, id := range platform.DomainIDs() {
		r.freq[id] = trace.NewSeries("freq:"+id.String(), "Hz")
	}
	return r
}

// OnSample implements Observer by appending every channel to its series.
func (r *RecordingSink) OnSample(s *Sample) error {
	for i, k := range s.NodeTempK {
		r.temp[r.nodeNames[i]].MustAppend(s.TimeS, thermal.ToCelsius(k))
	}
	r.maxTemp.MustAppend(s.TimeS, thermal.ToCelsius(s.MaxTempK))
	r.sensor.MustAppend(s.TimeS, thermal.ToCelsius(s.SensorK))
	r.total.MustAppend(s.TimeS, s.TotalW)
	for rl, series := range r.rail {
		series.MustAppend(s.TimeS, s.RailW[rl])
	}
	for id, series := range r.freq {
		series.MustAppend(s.TimeS, float64(s.FreqHz[id]))
	}
	return nil
}

// NodeTempSeries returns the true temperature trace (°C) of a node; ok
// is false for unknown node names.
func (r *RecordingSink) NodeTempSeries(name string) (*trace.Series, bool) {
	s, ok := r.temp[name]
	return s, ok
}

// MaxTempSeries returns the hottest-node temperature trace (°C).
func (r *RecordingSink) MaxTempSeries() *trace.Series { return r.maxTemp }

// SensorSeries returns the sensed-temperature trace (°C).
func (r *RecordingSink) SensorSeries() *trace.Series { return r.sensor }

// TotalPowerSeries returns the total power trace (W).
func (r *RecordingSink) TotalPowerSeries() *trace.Series { return r.total }

// RailPowerSeries returns one rail's power trace (W); ok is false for
// unknown rails.
func (r *RecordingSink) RailPowerSeries(rl power.Rail) (*trace.Series, bool) {
	s, ok := r.rail[rl]
	return s, ok
}

// FreqSeries returns one domain's frequency trace (Hz); ok is false for
// unknown domains.
func (r *RecordingSink) FreqSeries(id platform.DomainID) (*trace.Series, bool) {
	s, ok := r.freq[id]
	return s, ok
}
