package sim_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/daq"
	"repro/internal/dvfs"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/snapbin"
	"repro/internal/thermgov"
	"repro/internal/workload"
)

// snapshotConfig is batchTestConfig with a DAQ channel attached, so a
// snapshot carries every optional section.
func snapshotConfig(t *testing.T, seed int64, arm batchArm) sim.Config {
	t.Helper()
	cfg := batchTestConfig(t, "odroid", seed, arm)
	dcfg := daq.DefaultConfig()
	dcfg.Seed = seed
	ch, err := daq.New("power", dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DAQ = ch
	return cfg
}

// TestSnapshotRestoreRoundTrip pins the warm-start contract: an engine
// restored from a mid-run snapshot continues bit-identically to the
// engine the snapshot was taken from, for every thermal arm. Equal
// snapshots after the continuation compare the whole mutable state.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, arm := range []batchArm{armIPA, armStepwise, armAppAware, armNone} {
		orig := newTestEngine(t, snapshotConfig(t, 3, arm))
		if err := orig.RunSteps(1234); err != nil {
			t.Fatal(err)
		}
		blob, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var w snapbin.Writer
		if err := orig.SnapshotTo(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, w.Bytes()) {
			t.Fatalf("arm %d: Snapshot and SnapshotTo disagree", arm)
		}

		fork := newTestEngine(t, snapshotConfig(t, 3, arm))
		if err := fork.Restore(blob); err != nil {
			t.Fatalf("arm %d: %v", arm, err)
		}
		if fork.Now() != orig.Now() {
			t.Fatalf("arm %d: restored clock %v, want %v", arm, fork.Now(), orig.Now())
		}
		for _, e := range []*sim.Engine{orig, fork} {
			if err := e.RunSteps(1500); err != nil {
				t.Fatal(err)
			}
		}
		if math.Float64bits(orig.MaxTempSeenK()) != math.Float64bits(fork.MaxTempSeenK()) ||
			orig.Meter().TotalEnergyJ() != fork.Meter().TotalEnergyJ() {
			t.Fatalf("arm %d: restored run diverged", arm)
		}
		a, err := orig.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := fork.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("arm %d: state after the continuation differs", arm)
		}
	}
}

// TestRestoreRejectsBadBlobs covers Restore's validation: every
// truncation, foreign framing, trailing bytes, and a snapshot whose
// optional sections or task PIDs do not match the restoring engine.
func TestRestoreRejectsBadBlobs(t *testing.T) {
	orig := newTestEngine(t, snapshotConfig(t, 5, armAppAware))
	if err := orig.RunSteps(300); err != nil {
		t.Fatal(err)
	}
	blob, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	target := newTestEngine(t, snapshotConfig(t, 5, armAppAware))
	for n := 0; n < len(blob); n++ {
		if err := target.Restore(blob[:n]); err == nil {
			t.Fatalf("restore of a %d-byte prefix of a %d-byte snapshot succeeded", n, len(blob))
		}
	}
	if err := target.Restore(append(append([]byte(nil), blob...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: got %v", err)
	}
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(bad, 1)
	if err := target.Restore(bad); err == nil || !strings.Contains(err.Error(), "not an engine snapshot") {
		t.Errorf("bad magic: got %v", err)
	}
	bad = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(bad[8:], 99)
	if err := target.Restore(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v", err)
	}
	if err := target.Restore(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}

	mismatch := func(name string, mutate func(*sim.Config), want string) {
		t.Helper()
		cfg := snapshotConfig(t, 5, armAppAware)
		mutate(&cfg)
		e := newTestEngine(t, cfg)
		if err := e.Restore(blob); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, want)
		}
	}
	mismatch("thermal governor", func(c *sim.Config) { c.Thermal = thermgov.None{} }, "thermal-governor presence")
	mismatch("controller", func(c *sim.Config) { c.Controller = nil }, "controller presence")
	mismatch("DAQ", func(c *sim.Config) { c.DAQ = nil }, "DAQ presence")
	mismatch("task PID", func(c *sim.Config) { c.Apps[1].PID = 3 }, "PID")
}

// TestRestoreRejectsBadClocks covers Restore's clock bounds: a blob
// whose engine clock is not its step count times the step (checked
// before any RNG draw is replayed, as the draw bound scales with the
// step count), whose scheduled times are non-finite or more than a
// period ahead, or whose node temperatures are not finite and positive
// fails to load, so the next step cannot chase an unbounded clock. The engine section's
// layout is fixed: magic, version and tag, then the clock at byte 24,
// the step count at 32 and the first domain's governor time at 40; each
// domain's governor block is 49 bytes, so the controller's time is at
// 195 and the next trace sample's at 203.
func TestRestoreRejectsBadClocks(t *testing.T) {
	cfg := snapshotConfig(t, 5, armAppAware)
	orig := newTestEngine(t, cfg)
	if err := orig.RunSteps(150); err != nil {
		t.Fatal(err)
	}
	blob, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	now := 150 * cfg.StepS
	f64 := func(off int, v float64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v)) }
	}
	// The thermal section: its tag, then the node count and the temperatures.
	var tag [16]byte
	binary.LittleEndian.PutUint64(tag[:], 0xE4)
	binary.LittleEndian.PutUint64(tag[8:], uint64(len(orig.Platform().Net.Temperatures())))
	temps := bytes.Index(blob, tag[:]) + 16
	if temps < 16 {
		t.Fatal("thermal section not found")
	}
	// The sensor section follows: its tag, its seed, then its draw count.
	sensorDraws := temps + 8*len(orig.Platform().Net.Temperatures()) + 16
	u64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte)
		want   string
	}{
		{"clock off its step", f64(24, now+1), "is not step"},
		{"step count XOR 0x12 at byte 36", func(b []byte) { b[36] ^= 0x12 }, "is not step"},
		// Rejected before the sensor replays 2^45 draws, which the bound
		// at step 2^40 would allow.
		{"step count raised, draws inflated", func(b []byte) { u64(32, 1<<40)(b); u64(sensorDraws, 1<<45)(b) }, "is not step"},
		{"NaN governor time", f64(40, math.NaN()), "governor due"},
		{"governor time a period ahead", f64(40, now+10), "governor due"},
		{"infinite controller time", f64(195, math.Inf(1)), "controller due"},
		{"trace time a period ahead", f64(203, now+1), "trace sample due"},
		{"negative temperature", f64(temps, -1), "temperature"},
		{"NaN temperature", f64(temps+8, math.NaN()), "temperature"},
		{"infinite temperature", f64(temps, math.Inf(1)), "temperature"},
	} {
		bad := append([]byte(nil), blob...)
		tc.mutate(bad)
		e := newTestEngine(t, cfg)
		if err := e.Restore(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	if err := newTestEngine(t, cfg).Restore(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
}

// plainGovernor, plainThermal, plainController and plainApp implement
// their interfaces without snapshot support.
type plainGovernor struct{}

func (plainGovernor) Name() string                               { return "plain" }
func (plainGovernor) IntervalS() float64                         { return 0.02 }
func (plainGovernor) Decide(governor.Input, *dvfs.Domain) uint64 { return 0 }

type plainThermal struct{}

func (plainThermal) Name() string                                     { return "plain" }
func (plainThermal) IntervalS() float64                               { return 0.1 }
func (plainThermal) Control(float64, float64, []thermgov.DomainState) {}

type plainController struct{}

func (plainController) Name() string                 { return "plain" }
func (plainController) IntervalS() float64           { return 0.1 }
func (plainController) Control(float64, *sim.Engine) {}

type plainApp struct{}

func (plainApp) Name() string                                 { return "plain" }
func (plainApp) Demand(float64) workload.Demand               { return workload.Demand{CPUHz: 1e8} }
func (plainApp) Advance(float64, float64, workload.Resources) {}

// TestSnapshotRequiresCodecs pins that a stateful component without
// snapshot support fails Snapshot and Restore loudly, naming its role.
func TestSnapshotRequiresCodecs(t *testing.T) {
	good := newTestEngine(t, snapshotConfig(t, 9, armIPA))
	blob, err := good.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		role   string
		mutate func(*sim.Config)
	}{
		{"governor", func(c *sim.Config) { c.Governors[platform.DomGPU] = plainGovernor{} }},
		{"thermal governor", func(c *sim.Config) { c.Thermal = plainThermal{} }},
		{"controller", func(c *sim.Config) { c.Thermal, c.Controller = nil, plainController{} }},
		{"app", func(c *sim.Config) { c.Apps[1].App = plainApp{} }},
	} {
		cfg := snapshotConfig(t, 9, armIPA)
		tc.mutate(&cfg)
		e := newTestEngine(t, cfg)
		want := "sim: " + tc.role + ` "plain" does not implement snapshot state save/load`
		if _, err := e.Snapshot(); err == nil || err.Error() != want {
			t.Errorf("%s: Snapshot error %v, want %q", tc.role, err, want)
		}
		if tc.role == "controller" {
			continue // the blob's controller presence check fires first
		}
		if err := e.Restore(blob); err == nil || err.Error() != want {
			t.Errorf("%s: Restore error %v, want %q", tc.role, err, want)
		}
	}
}
