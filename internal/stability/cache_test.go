package stability

import (
	"math"
	"testing"
)

// TestTransientCacheMatchesDirect pins the memoized entry points
// bitwise against the direct ones across a grid of inputs — including
// repeated queries (served from the memo) and multiple thresholds
// replayed against one recorded trajectory.
func TestTransientCacheMatchesDirect(t *testing.T) {
	p := DefaultOdroidParams()
	c := NewTransientCache()

	pds := []float64{0.5, 2, 3.3, 5.4, 8}
	froms := []float64{305, 320, 333.15}
	thresholds := []float64{310, 325, 333.15, 350, 400}
	for pass := 0; pass < 2; pass++ { // second pass must hit the memo
		for _, pd := range pds {
			wantAn, wantErr := p.Analyze(pd)
			gotAn, gotErr := c.Analyze(p, pd)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("Analyze(%v) error mismatch: %v vs %v", pd, wantErr, gotErr)
			}
			if wantAn != gotAn {
				t.Fatalf("Analyze(%v) differs: %+v vs %+v", pd, wantAn, gotAn)
			}
			for _, from := range froms {
				for _, th := range thresholds {
					want, wantErr := p.TimeToThreshold(pd, from, th, 30)
					got, gotErr := c.TimeToThreshold(p, pd, from, th, 30)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("TimeToThreshold(%v,%v,%v) error mismatch: %v vs %v", pd, from, th, wantErr, gotErr)
					}
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("TimeToThreshold(%v,%v,%v) differs bitwise: %v vs %v", pd, from, th, want, got)
					}
				}
			}
		}
	}
	if c.Hits() == 0 {
		t.Fatal("second pass should have hit the memo")
	}
	// Degenerate and invalid inputs must behave identically too.
	if _, err := c.TimeToThreshold(p, 3, -1, 320, 30); err == nil {
		t.Error("negative from-temperature should error")
	}
	if _, err := c.TimeToThreshold(p, 3, 320, 330, 0); err == nil {
		t.Error("non-positive horizon should error")
	}
	if v, err := c.TimeToThreshold(p, 3, 320, 320, 30); err != nil || v != 0 {
		t.Errorf("equal temperatures should report 0, got %v, %v", v, err)
	}
}

// TestTransientCacheParamsChange ensures results stay correct when one
// cache serves different parameter sets (a recycled batch shell moving
// between platforms): stale memos must be flushed.
func TestTransientCacheParamsChange(t *testing.T) {
	a := DefaultOdroidParams()
	b := a
	b.ResistanceKPerW = 3 // different platform lump

	c := NewTransientCache()
	for _, p := range []Params{a, b, a} {
		want, _ := p.TimeToThreshold(3, 320, 340, 30)
		got, err := c.TimeToThreshold(p, 3, 320, 340, 30)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("params %+v: cached %v differs from direct %v", p, got, want)
		}
		wantAn, _ := p.Analyze(3)
		gotAn, err := c.Analyze(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if wantAn != gotAn {
			t.Fatalf("params %+v: cached analysis differs", p)
		}
	}
}

// TestTransientCacheEviction drives the memo past its capacity and
// verifies the flush keeps results exact.
func TestTransientCacheEviction(t *testing.T) {
	p := DefaultOdroidParams()
	c := NewTransientCache()
	for i := 0; i < 3*memoCap; i++ {
		pd := 2 + float64(i)*0.01
		from := 310 + float64(i%5)
		want, _ := p.TimeToThreshold(pd, from, 345, 20)
		got, err := c.TimeToThreshold(p, pd, from, 345, 20)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("i=%d: cached %v differs from direct %v", i, got, want)
		}
	}
	if len(c.trajs) > memoCap {
		t.Fatalf("trajectory memo grew past its cap: %d", len(c.trajs))
	}
}

// TestTransientCacheLongHorizons pins the cache to the direct
// integration for horizons too long to record: an infinite horizon
// (which has no step count, so recording it never ended), a finite one
// past maxTrajSteps, and NaN. None of them may enter the memo.
func TestTransientCacheLongHorizons(t *testing.T) {
	p := DefaultOdroidParams()
	c := NewTransientCache()
	for _, h := range []float64{math.Inf(1), 1e5, math.NaN()} {
		for _, th := range []float64{340, 400} {
			want, wantErr := p.TimeToThreshold(3, 310, th, h)
			got, err := c.TimeToThreshold(p, 3, 310, th, h)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("horizon %v, threshold %v: error %v, direct %v", h, th, err, wantErr)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("horizon %v, threshold %v: cached %v differs from direct %v", h, th, got, want)
			}
		}
	}
	if got, _ := c.TimeToThreshold(p, 3, 310, 340, math.Inf(1)); !(got > 269 && got < 270) {
		t.Errorf("odroid defaults at 3 W, 310 → 340 K: %v s, want ~269.3 s", got)
	}
	if len(c.trajs) != 0 {
		t.Errorf("%d over-long trajectories were memoized", len(c.trajs))
	}
}
