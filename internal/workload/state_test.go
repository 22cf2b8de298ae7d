package workload

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/snapbin"
)

// stateful is an app the engine can snapshot.
type stateful interface {
	App
	SaveState(*snapbin.Writer)
	LoadState(*snapbin.Reader) error
}

// statefulApps builds one fresh instance of every app type, so a test
// can build two identical copies.
func statefulApps(t *testing.T) []struct {
	name  string
	build func() stateful
} {
	t.Helper()
	samples, err := RecordTrace(PaperIO(3), 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	must := func(a stateful, err error) stateful {
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return []struct {
		name  string
		build func() stateful
	}{
		{"frame-app", func() stateful { return PaperIO(7) }},
		{"3dmark", func() stateful { return NewThreeDMark(7) }},
		{"generated", func() stateful { return must(DefaultGenSpec(GenBursty).Build(7)) }},
		{"bml", func() stateful { return NewBML() }},
		{"nenamark", func() stateful { return must(NewNenamark(DefaultNenamarkConfig())) }},
		{"replay", func() stateful { return must(NewReplayApp("recorded", samples, true)) }},
	}
}

// grant is a deterministic, step-varying resource grant: fast enough
// that apps make progress, slow enough at times that frame apps miss
// their targets and Nenamark accumulates failures.
func grant(step int) Resources {
	f := float64(step%17) / 16
	return Resources{CPUSpeedHz: 0.3e9 + 1.7e9*f, GPUSpeedHz: 40e6 + 560e6*(1-f)}
}

// advance steps a from step first to last (exclusive) at 10 ms.
func advance(a App, first, last int) {
	const dt = 0.01
	for s := first; s < last; s++ {
		now := float64(s) * dt
		a.Demand(now)
		a.Advance(now, dt, grant(s))
	}
}

func saveState(a stateful) []byte {
	var w snapbin.Writer
	a.SaveState(&w)
	return bytes.Clone(w.Bytes())
}

// TestStateRoundTrip saves each app type mid-run, loads the state into
// a fresh instance, and advances both: the loaded state must re-encode
// to the saved bytes, and the two must then ask for the same demand at
// every step and end in equal state.
func TestStateRoundTrip(t *testing.T) {
	const mid, end = 370, 700
	for _, tc := range statefulApps(t) {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.build()
			advance(orig, 0, mid)
			saved := saveState(orig)

			loaded := tc.build()
			if err := loaded.LoadState(snapbin.NewReader(saved)); err != nil {
				t.Fatal(err)
			}
			if got := saveState(loaded); !bytes.Equal(got, saved) {
				t.Fatal("loaded state re-encodes to different bytes")
			}
			for s := mid; s < end; s++ {
				now := float64(s) * 0.01
				if w, g := orig.Demand(now), loaded.Demand(now); w != g {
					t.Fatalf("step %d: demand %+v, want %+v", s, g, w)
				}
				orig.Advance(now, 0.01, grant(s))
				loaded.Advance(now, 0.01, grant(s))
			}
			if !bytes.Equal(saveState(orig), saveState(loaded)) {
				t.Fatal("state differs after advancing both")
			}
		})
	}
}

// TestStateLoadRejectsTruncated cuts each app's saved state at every
// shorter length; every cut must fail to load.
func TestStateLoadRejectsTruncated(t *testing.T) {
	for _, tc := range statefulApps(t) {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.build()
			advance(a, 0, 250)
			saved := saveState(a)
			for n := 0; n < len(saved); n++ {
				if err := tc.build().LoadState(snapbin.NewReader(saved[:n])); err == nil {
					t.Fatalf("state cut to %d of %d bytes loaded without error", n, len(saved))
				}
			}
		})
	}
}

// TestStateLoadRejectsCorrupt overwrites one field of a saved state
// with a value the app cannot hold: a phase or replay cursor out of
// range, a bool byte that is neither 0 nor 1, a slice length past the
// end of the blob.
func TestStateLoadRejectsCorrupt(t *testing.T) {
	apps := map[string]func() stateful{}
	for _, tc := range statefulApps(t) {
		apps[tc.name] = tc.build
	}
	putU64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	cases := []struct {
		app, name string
		corrupt   func([]byte)
		want      string
	}{
		// FrameApp: seed, draws, then the phase cursor.
		{"frame-app", "phase cursor", func(b []byte) { putU64(b, 16, 99) }, "restored phase 99 out of range"},
		{"3dmark", "negative phase cursor", func(b []byte) { putU64(b, 16, ^uint64(0)) }, "restored phase -1 out of range"},
		// FrameApp's done flag follows phaseIdx and phaseStart.
		{"generated", "done flag", func(b []byte) { b[32] = 2 }, "invalid bool byte 2"},
		// Nenamark: level, level start, fail seconds, terminated flag.
		{"nenamark", "terminated flag", func(b []byte) { b[24] = 7 }, "invalid bool byte 7"},
		{"nenamark", "fps sample count", func(b []byte) { putU64(b, 57, 1<<40) }, "exceeds remaining blob"},
		{"replay", "cursor", func(b []byte) { putU64(b, 0, 1<<20) }, "restored cursor 1048576 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.app+"/"+tc.name, func(t *testing.T) {
			a := apps[tc.app]()
			advance(a, 0, 250)
			saved := saveState(a)
			tc.corrupt(saved)
			err := apps[tc.app]().LoadState(snapbin.NewReader(saved))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadState: got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckClock pins the clock bounds an engine applies after loading
// an app's state: a mid-run app passes at the engine time of its last
// step's end, and an FPS bucket start outside (now-1, now], a phase
// start far behind the clock or a scene time far from it is rejected
// (the bounds allow a microsecond of clock rounding).
func TestCheckClock(t *testing.T) {
	const now = 2.5 // advance(a, 0, 250) ends at 250 steps of 10 ms
	frame := func(name string, build func() *FrameApp) {
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				name    string
				corrupt func(a *FrameApp)
				want    string
			}{
				{"intact", func(*FrameApp) {}, ""},
				{"bucket start over a second behind", func(a *FrameApp) { a.bucketStart = now - 1.01 }, "FPS bucket start"},
				{"bucket start ahead", func(a *FrameApp) { a.bucketStart = now + 0.5 }, "FPS bucket start"},
				{"phase start far behind", func(a *FrameApp) { a.phaseStart = -1e18 }, "phase 0 start"},
				{"next scene far behind", func(a *FrameApp) { a.nextScene = -1e18 }, "next scene"},
			} {
				a := build()
				if tc.want == "next scene" && a.cfg.SceneSigma == 0 {
					continue
				}
				advance(a, 0, 250)
				tc.corrupt(a)
				err := a.CheckClock(now)
				if tc.want == "" {
					if err != nil {
						t.Errorf("%s: %v", tc.name, err)
					}
				} else if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
				}
			}
		})
	}
	frame("frame-app", func() *FrameApp { return PaperIO(7) })
	frame("3dmark", func() *FrameApp { return NewThreeDMark(7).FrameApp })

	n, err := NewNenamark(DefaultNenamarkConfig())
	if err != nil {
		t.Fatal(err)
	}
	advance(n, 0, 250)
	if err := n.CheckClock(now); err != nil {
		t.Errorf("nenamark intact: %v", err)
	}
	n.bucketStart = 1e9
	if err := n.CheckClock(now); err == nil || !strings.Contains(err.Error(), "FPS bucket start") {
		t.Errorf("nenamark bucket start ahead: got %v", err)
	}
}
