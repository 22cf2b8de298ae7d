package dvfs

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/snapbin"
)

const mhz = 1_000_000

// adreno430 mirrors the Adreno 430 ladder used throughout the paper.
func adreno430(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(
		OPP{FreqHz: 180 * mhz, VoltageV: 0.80},
		OPP{FreqHz: 305 * mhz, VoltageV: 0.85},
		OPP{FreqHz: 390 * mhz, VoltageV: 0.90},
		OPP{FreqHz: 450 * mhz, VoltageV: 0.95},
		OPP{FreqHz: 510 * mhz, VoltageV: 1.00},
		OPP{FreqHz: 600 * mhz, VoltageV: 1.075},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(); err == nil {
		t.Error("expected error for empty table")
	}
	if _, err := NewTable(OPP{FreqHz: 0, VoltageV: 1}); err == nil {
		t.Error("expected error for zero frequency")
	}
	if _, err := NewTable(OPP{FreqHz: 100, VoltageV: 0}); err == nil {
		t.Error("expected error for zero voltage")
	}
	if _, err := NewTable(OPP{FreqHz: 100, VoltageV: math.NaN()}); err == nil {
		t.Error("expected error for NaN voltage")
	}
	if _, err := NewTable(
		OPP{FreqHz: 100, VoltageV: 1},
		OPP{FreqHz: 100, VoltageV: 1.1},
	); err == nil {
		t.Error("expected error for duplicate frequency")
	}
	if _, err := NewTable(
		OPP{FreqHz: 100, VoltageV: 1.2},
		OPP{FreqHz: 200, VoltageV: 1.0},
	); err == nil {
		t.Error("expected error for decreasing voltage")
	}
}

func TestTableSortsAscending(t *testing.T) {
	tbl, err := NewTable(
		OPP{FreqHz: 300, VoltageV: 1.1},
		OPP{FreqHz: 100, VoltageV: 0.9},
		OPP{FreqHz: 200, VoltageV: 1.0},
	)
	if err != nil {
		t.Fatal(err)
	}
	fs := tbl.Frequencies()
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Errorf("frequencies not ascending: %v", fs)
		}
	}
	if tbl.Min().FreqHz != 100 || tbl.Max().FreqHz != 300 {
		t.Errorf("min/max = %d/%d", tbl.Min().FreqHz, tbl.Max().FreqHz)
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic on invalid input")
		}
	}()
	MustTable()
}

func TestFloorCeil(t *testing.T) {
	tbl := adreno430(t)
	tests := []struct {
		in          uint64
		floor, ceil uint64
	}{
		{180 * mhz, 180 * mhz, 180 * mhz},
		{200 * mhz, 180 * mhz, 305 * mhz},
		{389 * mhz, 305 * mhz, 390 * mhz},
		{390 * mhz, 390 * mhz, 390 * mhz},
		{700 * mhz, 600 * mhz, 600 * mhz},
		{1, 180 * mhz, 180 * mhz}, // below table min
	}
	for _, tt := range tests {
		if got := tbl.Floor(tt.in).FreqHz; got != tt.floor {
			t.Errorf("Floor(%d) = %d, want %d", tt.in, got, tt.floor)
		}
		if got := tbl.Ceil(tt.in).FreqHz; got != tt.ceil {
			t.Errorf("Ceil(%d) = %d, want %d", tt.in, got, tt.ceil)
		}
	}
}

func TestIndexOfAndVoltage(t *testing.T) {
	tbl := adreno430(t)
	if i := tbl.IndexOf(390 * mhz); i != 2 {
		t.Errorf("IndexOf(390MHz) = %d, want 2", i)
	}
	if i := tbl.IndexOf(391 * mhz); i != -1 {
		t.Errorf("IndexOf(non-OPP) = %d, want -1", i)
	}
	if v := tbl.At(tbl.IndexOf(510 * mhz)).VoltageV; v != 1.00 {
		t.Errorf("voltage at 510MHz = %v, want 1.00", v)
	}
}

func newTestDomain(t *testing.T, latency float64) *Domain {
	t.Helper()
	d, err := NewDomain("gpu", adreno430(t), latency)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDomainValidation(t *testing.T) {
	if _, err := NewDomain("x", nil, 0); err == nil {
		t.Error("expected error for nil table")
	}
	if _, err := NewDomain("x", adreno430(t), -1); err == nil {
		t.Error("expected error for negative latency")
	}
}

func TestDomainStartsAtMin(t *testing.T) {
	d := newTestDomain(t, 0)
	if d.CurrentHz() != 180*mhz {
		t.Errorf("initial freq = %d, want table min", d.CurrentHz())
	}
}

func TestRequestImmediateWithoutLatency(t *testing.T) {
	d := newTestDomain(t, 0)
	got := d.Request(0, 510*mhz)
	if got != 510*mhz || d.CurrentHz() != 510*mhz {
		t.Errorf("request -> %d, current %d", got, d.CurrentHz())
	}
	if d.Transitions() != 1 {
		t.Errorf("transitions = %d, want 1", d.Transitions())
	}
}

func TestRequestRoundsDownToOPP(t *testing.T) {
	d := newTestDomain(t, 0)
	if got := d.Request(0, 500*mhz); got != 450*mhz {
		t.Errorf("request 500MHz -> %d, want 450MHz", got)
	}
}

func TestRequestHonorsLatency(t *testing.T) {
	d := newTestDomain(t, 0.005)
	d.Request(0, 600*mhz)
	if d.CurrentHz() != 180*mhz {
		t.Error("frequency should not change before latency elapses")
	}
	d.Advance(0, 0.001)
	if d.CurrentHz() != 180*mhz {
		t.Error("still pending at 1ms")
	}
	d.Advance(0.001, 0.005)
	if d.CurrentHz() != 600*mhz {
		t.Errorf("after latency freq = %d, want 600MHz", d.CurrentHz())
	}
}

func TestNewerRequestSupersedesPending(t *testing.T) {
	d := newTestDomain(t, 0.005)
	d.Request(0, 600*mhz)
	d.Request(0.001, 305*mhz)
	d.Advance(0.001, 0.01)
	if d.CurrentHz() != 305*mhz {
		t.Errorf("freq = %d, want 305MHz (superseded)", d.CurrentHz())
	}
	// Two requests but only one completed transition.
	if d.Transitions() != 1 {
		t.Errorf("transitions = %d, want 1", d.Transitions())
	}
}

func TestCapClampsRequests(t *testing.T) {
	d := newTestDomain(t, 0)
	d.SetCap(390 * mhz)
	if got := d.Request(0, 600*mhz); got != 390*mhz {
		t.Errorf("capped request -> %d, want 390MHz", got)
	}
	if d.Cap() != 390*mhz {
		t.Errorf("cap = %d", d.Cap())
	}
}

func TestCapThrottlesImmediately(t *testing.T) {
	d := newTestDomain(t, 0.01)
	d.Request(0, 600*mhz)
	d.Advance(0, 0.02) // complete transition
	if d.CurrentHz() != 600*mhz {
		t.Fatalf("setup failed, freq = %d", d.CurrentHz())
	}
	d.SetCap(305 * mhz)
	if d.CurrentHz() != 305*mhz {
		t.Errorf("thermal cap must clamp immediately, freq = %d", d.CurrentHz())
	}
}

func TestCapClampsPendingRequest(t *testing.T) {
	d := newTestDomain(t, 0.01)
	d.Request(0, 600*mhz)
	d.SetCap(390 * mhz)
	d.Advance(0, 0.02)
	if d.CurrentHz() != 390*mhz {
		t.Errorf("pending request should be clamped by cap, freq = %d", d.CurrentHz())
	}
}

func TestUncapRestoresRange(t *testing.T) {
	d := newTestDomain(t, 0)
	d.SetCap(305 * mhz)
	d.SetCap(0)
	if got := d.Request(0, 600*mhz); got != 600*mhz {
		t.Errorf("after uncap request -> %d, want 600MHz", got)
	}
}

func TestResidencyAccounting(t *testing.T) {
	d := newTestDomain(t, 0)
	d.Advance(0, 1.0) // 1 s at 180
	d.Request(1.0, 390*mhz)
	d.Advance(1.0, 3.0) // 3 s at 390
	res := d.residency
	if !closeTo(res[d.table.IndexOf(180*mhz)], 1.0) || !closeTo(res[d.table.IndexOf(390*mhz)], 3.0) {
		t.Errorf("residency = %v", res)
	}
	share := d.ResidencyShare()
	if !closeTo(share[180*mhz], 0.25) || !closeTo(share[390*mhz], 0.75) {
		t.Errorf("share = %v", share)
	}
	// Unused OPPs still present with zero share.
	if _, ok := share[600*mhz]; !ok {
		t.Error("share map should include all OPPs")
	}
}

func closeTo(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestResidencySharesSumToOneProperty(t *testing.T) {
	f := func(reqs []uint16, durs []uint8) bool {
		tbl := MustTable(
			OPP{FreqHz: 100 * mhz, VoltageV: 0.9},
			OPP{FreqHz: 200 * mhz, VoltageV: 1.0},
			OPP{FreqHz: 400 * mhz, VoltageV: 1.1},
		)
		d, err := NewDomain("p", tbl, 0)
		if err != nil {
			return false
		}
		now := 0.0
		any := false
		for i, r := range reqs {
			d.Request(now, uint64(r)*mhz)
			dt := 0.001
			if i < len(durs) {
				dt += float64(durs[i]) * 0.01
			}
			d.Advance(now, dt)
			now += dt
			any = true
		}
		if !any {
			return true
		}
		sum := 0.0
		for _, s := range d.ResidencyShare() {
			if s < 0 || s > 1 {
				return false
			}
			sum += s
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCurrentFreqAlwaysAnOPPProperty(t *testing.T) {
	f := func(reqs []uint32, caps []uint32) bool {
		tbl := adreno430(&testing.T{})
		d, err := NewDomain("gpu", tbl, 0.001)
		if err != nil {
			return false
		}
		now := 0.0
		for i, r := range reqs {
			if i < len(caps) {
				d.SetCap(uint64(caps[i]%700) * mhz)
			}
			d.Request(now, uint64(r%800)*mhz)
			d.Advance(now, 0.002)
			now += 0.002
			if tbl.IndexOf(d.CurrentHz()) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMHzLabel(t *testing.T) {
	if got := MHz(510 * mhz); got != "510MHz" {
		t.Errorf("MHz = %q", got)
	}
}

// TestLoadStateRejectsFloor requires a snapshot whose retired floor slot
// is not 0 to fail: no domain sets a floor, so no snapshot holds one.
func TestLoadStateRejectsFloor(t *testing.T) {
	d := newTestDomain(t, 0)
	var w snapbin.Writer
	d.SaveState(&w)
	blob := bytes.Clone(w.Bytes())
	if err := newTestDomain(t, 0).LoadState(snapbin.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	blob[16] = 1 // the floor slot follows the current frequency and the cap
	if err := newTestDomain(t, 0).LoadState(snapbin.NewReader(blob)); err == nil {
		t.Error("a snapshot with a frequency floor loaded")
	}
}
