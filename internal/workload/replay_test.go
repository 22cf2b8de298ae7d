package workload

import (
	"math"
	"testing"
)

func TestNewReplayAppValidates(t *testing.T) {
	cases := []struct {
		name    string
		samples []ReplaySample
	}{
		{"empty", nil},
		{"nonzero start", []ReplaySample{{TimeS: 1, CPUHz: 1}}},
		{"negative rate", []ReplaySample{{TimeS: 0, CPUHz: -1}}},
		{"NaN rate", []ReplaySample{{TimeS: 0, GPUHz: math.NaN()}}},
		{"out of order", []ReplaySample{{TimeS: 0}, {TimeS: 2}, {TimeS: 1}}},
		{"duplicate time", []ReplaySample{{TimeS: 0}, {TimeS: 0}}},
	}
	for _, c := range cases {
		if _, err := NewReplayApp("r", c.samples, false); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewReplayApp("r", []ReplaySample{{TimeS: 0, CPUHz: 1e9}}, false); err != nil {
		t.Errorf("valid trace should build: %v", err)
	}
}

func TestReplayZeroOrderHold(t *testing.T) {
	app, err := NewReplayApp("r", []ReplaySample{
		{TimeS: 0, CPUHz: 1e9, GPUHz: 0},
		{TimeS: 2, CPUHz: 2e9, GPUHz: 5e8},
		{TimeS: 5, CPUHz: 0, GPUHz: 0},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t       float64
		wantCPU float64
	}{
		{0, 1e9}, {1.99, 1e9}, {2, 2e9}, {4.5, 2e9}, {5, 0}, {100, 0},
	}
	for _, c := range cases {
		if d := app.Demand(c.t); d.CPUHz != c.wantCPU {
			t.Errorf("demand(%v).CPU = %v, want %v", c.t, d.CPUHz, c.wantCPU)
		}
	}
	if app.Duration() != 5 {
		t.Errorf("duration = %v, want 5", app.Duration())
	}
}

func TestReplayLoops(t *testing.T) {
	app, err := NewReplayApp("r", []ReplaySample{
		{TimeS: 0, CPUHz: 1e9},
		{TimeS: 1, CPUHz: 3e9},
		{TimeS: 2, CPUHz: 0},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Loop period is 2 s: t=2.5 maps to local 0.5 -> 1e9.
	if d := app.Demand(2.5); d.CPUHz != 1e9 {
		t.Errorf("demand(2.5) = %v, want 1e9 (looped)", d.CPUHz)
	}
	if d := app.Demand(5.5); d.CPUHz != 3e9 {
		t.Errorf("demand(5.5) = %v, want 3e9 (looped to local 1.5)", d.CPUHz)
	}
}

func TestReplayAccountsWork(t *testing.T) {
	app, _ := NewReplayApp("r", []ReplaySample{{TimeS: 0, CPUHz: 1e9, GPUHz: 1e8}}, false)
	for i := 0; i < 100; i++ {
		app.Advance(float64(i)*0.01, 0.01, Resources{CPUSpeedHz: 1e9, GPUSpeedHz: 1e8})
	}
	if math.Abs(app.cpuWork-1e9) > 1e6 {
		t.Errorf("CPU cycles = %v, want ~1e9", app.cpuWork)
	}
	if math.Abs(app.gpuWork-1e8) > 1e5 {
		t.Errorf("GPU cycles = %v, want ~1e8", app.gpuWork)
	}
}

func TestParseReplayCSV(t *testing.T) {
	csv := "time_s,cpu_hz,gpu_hz\n0,1e9,0\n1.5,2e9,3e8\n"
	app, err := ParseReplayCSV("trace", csv, false)
	if err != nil {
		t.Fatal(err)
	}
	if app.Name() != "trace" {
		t.Error("wrong name")
	}
	if d := app.Demand(1.6); d.CPUHz != 2e9 || d.GPUHz != 3e8 {
		t.Errorf("demand = %+v, want (2e9, 3e8)", d)
	}
	// Headerless CSV also parses.
	if _, err := ParseReplayCSV("t", "0,1,2\n3,4,5\n", false); err != nil {
		t.Errorf("headerless CSV should parse: %v", err)
	}
	// Malformed rows fail.
	if _, err := ParseReplayCSV("t", "0,1\n", false); err == nil {
		t.Error("2-field row should fail")
	}
	if _, err := ParseReplayCSV("t", "0,1,2\nx,y,z\n", false); err == nil {
		t.Error("non-numeric non-header row should fail")
	}
	if _, err := ParseReplayCSV("t", "", false); err == nil {
		t.Error("empty CSV should fail")
	}
}

func TestReplayDrivesSimDemand(t *testing.T) {
	// The replay app must work through the App interface exactly like
	// scripted apps: a step sequence with mixed queries.
	// In loop mode the final sample marks the loop end, so levels live
	// between consecutive samples: 5e8 on [0,1), 1e9 on [1,2).
	app, _ := NewReplayApp("r", []ReplaySample{
		{TimeS: 0, CPUHz: 5e8},
		{TimeS: 1, CPUHz: 1e9},
		{TimeS: 2, CPUHz: 0},
	}, true)
	seen := map[float64]bool{}
	for now := 0.0; now < 4; now += 0.25 {
		d := app.Demand(now)
		seen[d.CPUHz] = true
		app.Advance(now, 0.25, Resources{CPUSpeedHz: d.CPUHz})
	}
	if !seen[5e8] || !seen[1e9] {
		t.Errorf("expected both trace levels to appear, got %v", seen)
	}
}
