package appaware

import (
	"bytes"
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

// restoringConfig migrates and restores within a few seconds on the
// fast platform, so a mid-run state holds events, a victim stack and a
// running dwell clock.
func restoringConfig() Config {
	cfg := DefaultConfig()
	cfg.RestoreAfterS = 2
	cfg.RestoreMarginK = 1
	return cfg
}

// TestStateRoundTrip saves a governor mid-run and loads it into a fresh
// one and into one with a longer history of its own: both must
// re-encode to the saved bytes and report the same events, prediction
// count and victims.
func TestStateRoundTrip(t *testing.T) {
	g := MustNew(restoringConfig())
	e, _ := buildEngine(t, g)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if g.EventCount() == 0 || g.Predictions() == 0 || len(g.victims) == 0 {
		t.Fatalf("mid-run state is empty: %d events, %d predictions, victims %v", g.EventCount(), g.Predictions(), g.victims)
	}
	saved := saveState(g)

	longer := MustNew(restoringConfig())
	le, _ := buildEngine(t, longer)
	if err := le.Run(30); err != nil {
		t.Fatal(err)
	}
	for name, dst := range map[string]*Governor{"fresh": MustNew(restoringConfig()), "reused": longer} {
		if err := dst.LoadState(snapbin.NewReader(saved)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := saveState(dst); !bytes.Equal(got, saved) {
			t.Errorf("%s: loaded state re-encodes differently", name)
		}
		if !reflect.DeepEqual(dst.Events(), g.Events()) || dst.EventCount() != g.EventCount() {
			t.Errorf("%s: events %+v, want %+v", name, dst.Events(), g.Events())
		}
		if dst.Predictions() != g.Predictions() || dst.coolSince != g.coolSince {
			t.Errorf("%s: predictions %d, cool since %v; want %d, %v", name, dst.Predictions(), dst.coolSince, g.Predictions(), g.coolSince)
		}
		if !slices.Equal(dst.victims, g.victims) {
			t.Errorf("%s: victims %v, want %v", name, dst.victims, g.victims)
		}
	}
}

// TestLoadStateRejectsTruncated cuts a saved state at every length and
// requires each cut to fail without touching the governor, and rejects
// an event count the input cannot hold.
func TestLoadStateRejectsTruncated(t *testing.T) {
	g := MustNew(restoringConfig())
	e, _ := buildEngine(t, g)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	saved := saveState(g)
	for cut := 0; cut < len(saved); cut++ {
		dst := MustNew(restoringConfig())
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
		cfg := restoringConfig()
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
