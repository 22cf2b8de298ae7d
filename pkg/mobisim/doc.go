// Package mobisim is the public facade of the mobile-SoC thermal
// simulator: the one stable API surface over the internal engine that
// closes the paper's simulation loop (workload → CPUfreq governor →
// scheduler → power model → RC thermal network → thermal governor).
//
// The package has three coordinated layers:
//
//   - Declarative scenarios. A Scenario is a JSON-serializable
//     description of one simulation — platform, workload mix, thermal
//     arm, duration, seed — with Validate, defaulting, and stable
//     round-trip encoding. New workload mixes are spec files, not code
//     changes. A Matrix is the sweep-shaped counterpart: per-axis value
//     lists that expand into many scenarios.
//
//   - Engine construction. New(spec, opts...) assembles a runnable
//     Engine from a spec, with functional options (WithObserver,
//     WithoutRecording, WithDAQ) for the knobs that are engine
//     concerns rather than scenario identity. The integration step,
//     trace period and task window are scenario fields.
//
//   - Streaming observers. The engine publishes a Sample (temperatures,
//     per-rail power, frequencies) once per trace period to every
//     registered Observer, making long runs constant-memory. The
//     classic getter-based traces are one built-in observer, the
//     RecordingSink, enabled by default and removable with
//     WithoutRecording.
//
// Quickstart:
//
//	spec, err := mobisim.ParseScenario([]byte(`{
//	    "platform": "nexus6p",
//	    "workload": "paper.io",
//	    "governor": "stepwise",
//	    "duration_s": 30,
//	    "seed": 1
//	}`))
//	if err != nil { ... }
//	eng, err := mobisim.New(spec)
//	if err != nil { ... }
//	if err := eng.Run(); err != nil { ... }
//	fmt.Println(eng.Summary())
//	fmt.Println(eng.Metrics()["peak_c"])
//
// Same-seed runs are bitwise deterministic, and observers never
// influence dynamics, so any combination of sinks reproduces identical
// metrics.
package mobisim
