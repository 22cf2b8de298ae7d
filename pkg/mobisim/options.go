package mobisim

import (
	"fmt"

	"repro/internal/daq"
	"repro/internal/sim"
)

// Option adjusts engine construction without changing what the
// scenario simulates: observers, recording and instrumentation. The
// timing knobs are Scenario fields (step_s, trace_period_s,
// task_window_s), so Validate bounds them and CellKey covers them.
type Option func(*buildConfig) error

// buildConfig accumulates option effects before New assembles the
// sim.Config.
type buildConfig struct {
	observers        []sim.Observer
	disableRecording bool
	daq              *daq.Channel
}

// WithObserver registers a streaming observer; it receives one Sample
// per trace period. May be repeated to attach several observers.
func WithObserver(o Observer) Option {
	return func(bc *buildConfig) error {
		if o == nil {
			return fmt.Errorf("mobisim: WithObserver needs a non-nil observer")
		}
		bc.observers = append(bc.observers, o)
		return nil
	}
}

// WithoutRecording disables the built-in RecordingSink, making the run
// constant-memory: the engine's series lookups then report ok=false,
// and only observers attached WithObserver see samples. Metrics and
// Summary are unaffected — and, because the engine publishes samples
// regardless, so are the simulated dynamics.
func WithoutRecording() Option {
	return func(bc *buildConfig) error {
		bc.disableRecording = true
		return nil
	}
}

// WithDAQ attaches a modeled external power-measurement instrument
// sampling total platform power on its own clock; read it back with
// Engine.DAQ.
func WithDAQ(name string, cfg DAQConfig) Option {
	return func(bc *buildConfig) error {
		ch, err := daq.New(name, cfg)
		if err != nil {
			return err
		}
		bc.daq = ch
		return nil
	}
}
