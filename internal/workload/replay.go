package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ReplaySample is one row of a recorded demand trace.
type ReplaySample struct {
	// TimeS is the sample time; samples must be in ascending order.
	TimeS float64
	// CPUHz and GPUHz are the demanded execution rates at that time.
	CPUHz, GPUHz float64
}

// ReplayApp replays a recorded demand trace (zero-order hold between
// samples). It lets users drive the simulator with measured traces —
// for example, utilization logs captured from a real phone — instead
// of the synthetic app models, while reusing the whole governor/
// power/thermal pipeline.
type ReplayApp struct {
	name    string
	samples []ReplaySample
	loop    bool

	idx     int
	epoch   float64 // start time of the current loop iteration
	cpuWork float64 // integrated achieved CPU cycles
	gpuWork float64
}

// NewReplayApp validates the trace and builds the app. Samples must be
// non-empty, time-ascending, starting at t=0, with non-negative rates.
func NewReplayApp(name string, samples []ReplaySample, loop bool) (*ReplayApp, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("workload: replay %q needs at least one sample", name)
	}
	if samples[0].TimeS != 0 {
		return nil, fmt.Errorf("workload: replay %q must start at t=0, got %v", name, samples[0].TimeS)
	}
	for i, s := range samples {
		if s.CPUHz < 0 || s.GPUHz < 0 || math.IsNaN(s.CPUHz) || math.IsNaN(s.GPUHz) {
			return nil, fmt.Errorf("workload: replay %q sample %d has invalid rates (%v, %v)", name, i, s.CPUHz, s.GPUHz)
		}
		if math.IsNaN(s.TimeS) || (i > 0 && s.TimeS <= samples[i-1].TimeS) {
			return nil, fmt.Errorf("workload: replay %q sample %d out of order at t=%v", name, i, s.TimeS)
		}
	}
	return &ReplayApp{
		name:    name,
		samples: append([]ReplaySample(nil), samples...),
		loop:    loop,
	}, nil
}

// ParseReplayCSV parses a trace in "time_s,cpu_hz,gpu_hz" CSV form
// (header row optional) and builds a ReplayApp.
func ParseReplayCSV(name, csv string, loop bool) (*ReplayApp, error) {
	var samples []ReplaySample
	for i, line := range strings.Split(csv, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("workload: replay CSV line %d: want 3 fields, got %d", i+1, len(fields))
		}
		t, err1 := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		c, err2 := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		g, err3 := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			if i == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("workload: replay CSV line %d: non-numeric fields", i+1)
		}
		samples = append(samples, ReplaySample{TimeS: t, CPUHz: c, GPUHz: g})
	}
	return NewReplayApp(name, samples, loop)
}

// Name implements App.
func (r *ReplayApp) Name() string { return r.name }

// Samples returns a copy of the trace rows the app replays.
func (r *ReplayApp) Samples() []ReplaySample {
	return append([]ReplaySample(nil), r.samples...)
}

// Duration returns the trace length in seconds: the time of the last
// sample. Without looping the last sample's rates hold forever; with
// looping the last sample marks the loop end (zero width), so traces
// meant to loop should finish with a terminator row.
func (r *ReplayApp) Duration() float64 { return r.samples[len(r.samples)-1].TimeS }

// Demand implements App.
func (r *ReplayApp) Demand(nowS float64) Demand {
	local := nowS - r.epoch
	if r.loop && r.Duration() > 0 {
		for local >= r.Duration() {
			local -= r.Duration()
			r.epoch += r.Duration()
			r.idx = 0
		}
	}
	// Advance the cursor; traces play forward, so the common case is
	// O(1). Seeks (after a loop reset) fall back to binary search.
	if r.idx > 0 && r.samples[r.idx].TimeS > local {
		r.idx = sort.Search(len(r.samples), func(i int) bool {
			return r.samples[i].TimeS > local
		}) - 1
		if r.idx < 0 {
			r.idx = 0
		}
	}
	for r.idx+1 < len(r.samples) && r.samples[r.idx+1].TimeS <= local {
		r.idx++
	}
	s := r.samples[r.idx]
	return Demand{CPUHz: s.CPUHz, GPUHz: s.GPUHz}
}

// Advance implements App.
func (r *ReplayApp) Advance(nowS, dt float64, res Resources) {
	r.cpuWork += res.CPUSpeedHz * dt
	r.gpuWork += res.GPUSpeedHz * dt
}
