package appaware

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapbin"
	"repro/internal/stability"
	"repro/internal/thermal"
)

func saveState(g *Governor) []byte {
	var w snapbin.Writer
	g.SaveState(&w)
	return bytes.Clone(w.Bytes())
}

// migratedState runs the fast platform long enough for the governor to
// migrate, so its state holds events and a prediction count.
func migratedState(t *testing.T) *Governor {
	t.Helper()
	g := MustNew(DefaultConfig())
	e, _ := buildEngine(t, g)
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if g.EventCount() == 0 || g.Predictions() == 0 {
		t.Fatalf("mid-run state is empty: %d events, %d predictions", g.EventCount(), g.Predictions())
	}
	return g
}

// v1State writes the version-1 snapshot layout of a governor field by
// field: the event log, the victim stack, the restore clock and the
// prediction count.
func v1State(events []Event, victims []int, clock float64, predictions int) []byte {
	var w snapbin.Writer
	w.PutInt(len(events))
	for _, ev := range events {
		w.PutF64(ev.TimeS)
		w.PutInt(int(ev.Kind))
		w.PutInt(ev.PID)
		w.PutF64(ev.PredictedFixedK)
		w.PutF64(ev.TimeToLimitS)
	}
	w.PutInt(len(victims))
	for _, pid := range victims {
		w.PutInt(pid)
	}
	w.PutF64(clock)
	w.PutInt(predictions)
	return w.Bytes()
}

// TestStateRoundTrip saves a governor mid-run and loads it into a fresh
// one and into one with a longer history of its own: both must
// re-encode to the saved bytes and report the same events and
// prediction count. The saved bytes are the version-1 layout with the
// events' PIDs as the victim stack and -1 as the restore clock.
func TestStateRoundTrip(t *testing.T) {
	g := migratedState(t)
	saved := saveState(g)
	var pids []int
	for _, ev := range g.Events() {
		pids = append(pids, ev.PID)
	}
	if want := v1State(g.Events(), pids, -1, g.Predictions()); !bytes.Equal(saved, want) {
		t.Fatal("saved state is not the version-1 layout")
	}

	longer := MustNew(DefaultConfig())
	le, _ := buildEngine(t, longer)
	if err := le.Run(30); err != nil {
		t.Fatal(err)
	}
	for name, dst := range map[string]*Governor{"fresh": MustNew(DefaultConfig()), "reused": longer} {
		if err := dst.LoadState(snapbin.NewReader(saved)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := saveState(dst); !bytes.Equal(got, saved) {
			t.Errorf("%s: loaded state re-encodes differently", name)
		}
		if !reflect.DeepEqual(dst.Events(), g.Events()) || dst.EventCount() != g.EventCount() {
			t.Errorf("%s: events %+v, want %+v", name, dst.Events(), g.Events())
		}
		if dst.Predictions() != g.Predictions() {
			t.Errorf("%s: predictions %d, want %d", name, dst.Predictions(), g.Predictions())
		}
	}
}

// TestLoadStateRejectsWhatSaveStateCannotWrite feeds LoadState
// version-1 blobs that SaveState never writes: an event other than a
// migration, a victim stack that is not the events' PIDs, and a
// restore clock other than -1. Each must fail without touching the
// governor.
func TestLoadStateRejectsWhatSaveStateCannotWrite(t *testing.T) {
	g := migratedState(t)
	events, n := g.Events(), g.Predictions()
	var pids []int
	for _, ev := range events {
		pids = append(pids, ev.PID)
	}
	otherKind := slices.Clone(events)
	otherKind[0].Kind = 1
	otherPID := slices.Clone(pids)
	otherPID[len(otherPID)-1]++
	bad := map[string][]byte{
		"event kind":       v1State(otherKind, pids, -1, n),
		"short stack":      v1State(events, pids[:len(pids)-1], -1, n),
		"long stack":       v1State(events, append(slices.Clone(pids), pids[0]), -1, n),
		"other victim":     v1State(events, otherPID, -1, n),
		"running clock":    v1State(events, pids, 2.5, n),
		"zero clock":       v1State(events, pids, 0, n),
		"NaN clock":        v1State(events, pids, math.NaN(), n),
		"clock, no events": v1State(nil, nil, 0, 0),
	}
	for name, blob := range bad {
		dst := MustNew(DefaultConfig())
		before := saveState(dst)
		if err := dst.LoadState(snapbin.NewReader(blob)); err == nil {
			t.Errorf("%s: loaded", name)
		}
		if !bytes.Equal(saveState(dst), before) {
			t.Errorf("%s: a failed load changed the governor", name)
		}
	}
}

// TestLoadStateRejectsTruncated cuts a saved state at every length and
// requires each cut to fail without touching the governor, and rejects
// an event count the input cannot hold.
func TestLoadStateRejectsTruncated(t *testing.T) {
	saved := saveState(migratedState(t))
	for cut := 0; cut < len(saved); cut++ {
		dst := MustNew(DefaultConfig())
		before := saveState(dst)
		if err := dst.LoadState(snapbin.NewReader(saved[:cut])); err == nil {
			t.Fatalf("state cut at %d of %d bytes loaded", cut, len(saved))
		}
		if !bytes.Equal(saveState(dst), before) {
			t.Fatalf("a failed load at %d bytes changed the governor", cut)
		}
	}
	for _, n := range []int{-1, len(saved)} {
		var w snapbin.Writer
		w.PutInt(n)
		if err := MustNew(DefaultConfig()).LoadState(snapbin.NewReader(w.Bytes())); err == nil {
			t.Errorf("event count %d loaded", n)
		}
	}
}

// TestSharedCacheMatchesPrivate steps governors that share one stability
// memo in lockstep — two identical lanes and one with another limit —
// beside governors with none, and requires the same events and
// prediction counts lane by lane. The identical lanes must hit the memo.
func TestSharedCacheMatchesPrivate(t *testing.T) {
	limits := []float64{thermal.ToKelvin(50), thermal.ToKelvin(50), thermal.ToKelvin(53)}
	shared := stability.NewTransientCache()
	var sharedGovs, privateGovs []*Governor
	var engines []*sim.Engine
	for _, limitK := range limits {
		cfg := DefaultConfig()
		cfg.ThermalLimitK = limitK
		sg, pg := MustNew(cfg), MustNew(cfg)
		sg.ShareTransientCache(shared)
		se, _ := buildEngine(t, sg)
		pe, _ := buildEngine(t, pg)
		sharedGovs, privateGovs = append(sharedGovs, sg), append(privateGovs, pg)
		engines = append(engines, se, pe)
	}
	for tick := 0; tick < 200; tick++ {
		for _, e := range engines {
			if err := e.Run(0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range limits {
		sg, pg := sharedGovs[i], privateGovs[i]
		if !reflect.DeepEqual(sg.Events(), pg.Events()) || sg.Predictions() != pg.Predictions() {
			t.Errorf("lane %d: shared memo gives %d events, %d predictions; private %d, %d",
				i, sg.EventCount(), sg.Predictions(), pg.EventCount(), pg.Predictions())
		}
	}
	if sharedGovs[0].EventCount() == 0 {
		t.Error("no lane acted; the comparison covers no decision")
	}
	if shared.Hits() == 0 {
		t.Error("identical lanes never hit the shared memo")
	}
}
