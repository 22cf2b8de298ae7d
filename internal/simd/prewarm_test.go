package simd

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/pkg/mobisim"
)

// prewarmMatrix sweeps limits around the Odroid prewarm temperature
// (50 °C): a limit-50 cell starts on its limit and never acts, while
// the limit-52 and limit-58 cells do.
func prewarmMatrix(limits ...float64) mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    limits,
		Replicates: 2,
		DurationS:  3,
		BaseSeed:   1000904,
	}
}

// TestServerPrewarmLimitAcrossJobs runs a limit-50 job and then a
// limit-52/58 job on one daemon and one cache directory. Nothing the
// first job leaves behind may change the second job's bytes: they must
// equal a cold RunSweep of the second matrix at every batch width,
// including the zero-value width.
func TestServerPrewarmLimitAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	first, second := prewarmMatrix(50), prewarmMatrix(52, 58)
	want := coldSweepJSON(t, second)
	for _, width := range []int{0, 1, 8} {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), BatchWidth: width})
			srv.Start()
			defer srv.Shutdown(context.Background())

			st1, _ := postJob(t, ts, matrixBody(t, first, ""))
			waitState(t, ts, st1.ID, JobDone)
			st2, _ := postJob(t, ts, matrixBody(t, second, ""))
			done := waitState(t, ts, st2.ID, JobDone)
			if done.Computed != second.ExpandedSize() {
				t.Errorf("second job counters: %+v", done)
			}
			if body := getResult(t, ts, st2.ID); !bytes.Equal(body, want) {
				t.Errorf("second job differs from a cold RunSweep:\nwant:\n%s\ngot:\n%s", want, body)
			}
		})
	}
}

// TestRunSweepCachedPrewarmLimitAcrossRuns is the same two-run check
// through RunSweepCached (`sweep -cache-dir`) on one Cache, at the
// planner's width (0), at width 1 and at width 8.
func TestRunSweepCachedPrewarmLimitAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	second := prewarmMatrix(52, 58)
	want := coldSweepJSON(t, second)
	for _, width := range []int{0, 1, mobisim.DefaultBatchWidth} {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			cache, err := NewCache(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			cfg := mobisim.SweepConfig{Workers: 2, BatchWidth: width}
			if _, _, err := RunSweepCached(ctx, prewarmMatrix(50), cfg, cache); err != nil {
				t.Fatal(err)
			}
			out, stats, err := RunSweepCached(ctx, second, cfg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Computed() != second.ExpandedSize() {
				t.Errorf("second run stats: %+v", stats)
			}
			var got bytes.Buffer
			if err := out.EncodeJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("second cached run differs from a cold RunSweep:\nwant:\n%s\ngot:\n%s", want, got.Bytes())
			}
		})
	}
}
