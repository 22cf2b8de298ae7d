package mobisim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sim"
)

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false,
	"rewrite the golden snapshot blob fixture")

// snapshotSteps converts a scenario duration to the engine step count,
// mirroring Engine.Run's rounding.
func snapshotSteps(e *Engine) int {
	return int(math.Round(e.Spec().DurationS / e.Sim().StepS()))
}

// finalSnapshot runs assertions-free snapshot extraction at end of run.
func finalSnapshot(t *testing.T, e *Engine) []byte {
	t.Helper()
	blob, err := e.Sim().Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return blob
}

// assertMetricsBitwiseEqual compares two metric maps with exact float
// bit equality — the determinism bar everything in this repo holds.
func assertMetricsBitwiseEqual(t *testing.T, label string, want, got map[string]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: metric count %d != %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing metric %q", label, k)
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%s: metric %q: %v (%#x) != %v (%#x)",
				label, k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// roundTripScalar pins the tentpole property on one scenario: a run
// interrupted by Snapshot at step k and resumed by Restore in a fresh
// engine finishes in exactly the same state — snapshot-for-snapshot
// byte equality, not just matching metrics — as the uninterrupted run.
func roundTripScalar(t *testing.T, spec Scenario, opts ...Option) {
	t.Helper()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	buildOpts := append([]Option{WithoutRecording()}, opts...)

	cold, err := New(spec, buildOpts...)
	if err != nil {
		t.Fatal(err)
	}
	total := snapshotSteps(cold)
	if total < 10 {
		t.Fatalf("scenario too short for a meaningful round trip: %d steps", total)
	}
	if err := cold.RunSteps(total); err != nil {
		t.Fatal(err)
	}
	coldFinal := finalSnapshot(t, cold)

	// k deliberately not aligned with any control/trace period.
	k := total/3 + 1

	interrupted, err := New(spec, buildOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := interrupted.RunSteps(k); err != nil {
		t.Fatal(err)
	}
	blob := finalSnapshot(t, interrupted)
	if err := interrupted.RunSteps(total - k); err != nil {
		t.Fatal(err)
	}
	if got := finalSnapshot(t, interrupted); !bytes.Equal(got, coldFinal) {
		t.Errorf("engine state diverged after taking a snapshot mid-run (snapshot must not perturb the run)")
	}

	restored, err := New(spec, buildOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Sim().Restore(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Restore must reposition time exactly.
	if w := float64(k) * restored.Sim().StepS(); restored.NowS() != w {
		t.Fatalf("restored clock %v, want %v", restored.NowS(), w)
	}
	if err := restored.RunSteps(total - k); err != nil {
		t.Fatal(err)
	}
	if got := finalSnapshot(t, restored); !bytes.Equal(got, coldFinal) {
		t.Errorf("restored run final state differs from uninterrupted run")
	}
	assertMetricsBitwiseEqual(t, "restored metrics", cold.Metrics(), restored.Metrics())
}

func TestSnapshotRoundTripBuiltinPlatforms(t *testing.T) {
	cases := []Scenario{
		{Platform: PlatformNexus6P, Workload: "3dmark+bml", DurationS: 2, Seed: 7},
		{Platform: PlatformNexus6P, Workload: "paper.io", Governor: GovAppAware, LimitC: 55, DurationS: 2, Seed: 3},
		{Platform: PlatformOdroidXU3, Workload: "3dmark+bml", Governor: GovAppAware, LimitC: 58, DurationS: 2, Seed: 1, ModelOnlyBML: true},
		{Platform: PlatformOdroidXU3, Workload: "nenamark", Governor: GovIPA, DurationS: 2, Seed: 9},
		{Platform: PlatformOdroidXU3, Workload: "gen-bursty+bml", Governor: GovNone, DurationS: 2, Seed: 11},
	}
	for _, spec := range cases {
		spec := spec
		t.Run(fmt.Sprintf("%s_%s_%s", spec.Platform, spec.Workload, spec.Governor), func(t *testing.T) {
			roundTripScalar(t, spec)
		})
	}
}

func TestSnapshotRoundTripWithDAQ(t *testing.T) {
	spec := Scenario{Platform: PlatformNexus6P, Workload: "hangouts", DurationS: 2, Seed: 5}
	roundTripScalar(t, spec, WithDAQ("pxie4081", DefaultDAQConfig()))
}

// TestDAQResumeCountsWholeRun restores a DAQ-carrying engine mid-run
// and requires its channel to report the same sample count, mean and
// max as a channel that ran straight through: the snapshot keeps the
// aggregate, not the recorded series.
func TestDAQResumeCountsWholeRun(t *testing.T) {
	spec := Scenario{Platform: PlatformNexus6P, Workload: "paper.io", DurationS: 2, Seed: 1}
	build := func() *Engine {
		e, err := New(spec, WithoutRecording(), WithDAQ("pxie4081", DefaultDAQConfig()))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	straight := build()
	if err := straight.RunSteps(2000); err != nil {
		t.Fatal(err)
	}
	first := build()
	if err := first.RunSteps(1000); err != nil {
		t.Fatal(err)
	}
	blob, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := build()
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunSteps(1000); err != nil {
		t.Fatal(err)
	}
	want, got := straight.DAQ(), resumed.DAQ()
	if got.SampleCount() != want.SampleCount() || got.MeanW() != want.MeanW() || got.MaxW() != want.MaxW() {
		t.Errorf("resumed channel: %d samples, mean %v W, max %v W; straight run: %d, %v W, %v W",
			got.SampleCount(), got.MeanW(), got.MaxW(), want.SampleCount(), want.MeanW(), want.MaxW())
	}
}

func TestSnapshotRoundTripPlatformCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "platforms", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("platform corpus has %d specs, want >= 3", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := LoadPlatformSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			roundTripScalar(t, Scenario{
				PlatformSpec: &spec,
				Workload:     "gen-periodic+bml",
				Governor:     GovAppAware,
				LimitC:       60,
				DurationS:    2,
				Seed:         4,
			})
		})
	}
}

// TestSnapshotRoundTripBatched pins the same property through the
// batched lockstep path, under both serial and parallel schedulers:
// lanes snapshotted mid-batch and restored into fresh lanes coupled on
// a new BatchEngine finish byte-identical to an uninterrupted scalar
// run of each lane.
func TestSnapshotRoundTripBatched(t *testing.T) {
	limits := []float64{55, 58, 61, 64}
	specFor := func(limitC float64) Scenario {
		s := Scenario{
			Platform:     PlatformOdroidXU3,
			Workload:     "3dmark+bml",
			Governor:     GovAppAware,
			LimitC:       limitC,
			DurationS:    2,
			Seed:         1,
			ModelOnlyBML: true,
		}
		s.Normalize()
		return s
	}
	for _, procs := range []int{1, 8} {
		procs := procs
		t.Run(fmt.Sprintf("gomaxprocs_%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			// Reference: scalar uninterrupted run per lane.
			finals := make([][]byte, len(limits))
			for i, lim := range limits {
				eng, err := New(specFor(lim), WithoutRecording())
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RunSteps(snapshotSteps(eng)); err != nil {
					t.Fatal(err)
				}
				finals[i] = finalSnapshot(t, eng)
			}

			newLanes := func() ([]*Engine, []*sim.Engine) {
				facades := make([]*Engine, len(limits))
				lanes := make([]*sim.Engine, len(limits))
				for i, lim := range limits {
					eng, err := New(specFor(lim), WithoutRecording())
					if err != nil {
						t.Fatal(err)
					}
					facades[i] = eng
					lanes[i] = eng.Sim()
				}
				return facades, lanes
			}

			facades, lanes := newLanes()
			be, err := sim.NewBatchEngine(lanes)
			if err != nil {
				t.Fatal(err)
			}
			total := snapshotSteps(facades[0])
			k := total/3 + 1
			if err := be.RunSteps(k); err != nil {
				t.Fatal(err)
			}
			blobs := make([][]byte, len(facades))
			for i, f := range facades {
				blobs[i] = finalSnapshot(t, f)
			}

			// Fork: fresh lanes restored from the mid-batch snapshots,
			// coupled on a new batch engine.
			forked, forkLanes := newLanes()
			for i, f := range forked {
				if err := f.Sim().Restore(blobs[i]); err != nil {
					t.Fatalf("lane %d restore: %v", i, err)
				}
			}
			fbe, err := sim.NewBatchEngine(forkLanes)
			if err != nil {
				t.Fatal(err)
			}
			if err := fbe.RunSteps(total - k); err != nil {
				t.Fatal(err)
			}
			for i, f := range forked {
				if got := finalSnapshot(t, f); !bytes.Equal(got, finals[i]) {
					t.Errorf("lane %d (limit %g): batched fork diverged from scalar cold run", i, limits[i])
				}
			}

			// The original batch, continued, must also match.
			if err := be.RunSteps(total - k); err != nil {
				t.Fatal(err)
			}
			for i, f := range facades {
				if got := finalSnapshot(t, f); !bytes.Equal(got, finals[i]) {
					t.Errorf("lane %d (limit %g): batched run diverged from scalar cold run", i, limits[i])
				}
			}
		})
	}
}

// TestSnapshotRestoreErrors pins the failure modes: garbage, truncated
// blobs, foreign versions, and restoring into a mismatched engine all
// fail loudly instead of silently corrupting state.
func TestSnapshotRestoreErrors(t *testing.T) {
	spec := Scenario{Platform: PlatformOdroidXU3, Workload: "3dmark+bml", Governor: GovAppAware, LimitC: 60, DurationS: 1, Seed: 2, ModelOnlyBML: true}
	spec.Normalize()
	eng, err := New(spec, WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSteps(500); err != nil {
		t.Fatal(err)
	}
	blob := finalSnapshot(t, eng)

	fresh := func() *Engine {
		e, err := New(spec, WithoutRecording())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	if err := fresh().Sim().Restore(nil); err == nil {
		t.Error("restoring an empty blob succeeded")
	}
	if err := fresh().Sim().Restore([]byte("not a snapshot at all.....")); err == nil {
		t.Error("restoring garbage succeeded")
	}
	if err := fresh().Sim().Restore(blob[:len(blob)/2]); err == nil {
		t.Error("restoring a truncated blob succeeded")
	}
	if err := fresh().Sim().Restore(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("restoring a blob with trailing bytes succeeded")
	}
	bumped := append([]byte(nil), blob...)
	bumped[8]++ // version field
	if err := fresh().Sim().Restore(bumped); err == nil {
		t.Error("restoring a future-version blob succeeded")
	}

	other := Scenario{Platform: PlatformNexus6P, Workload: "3dmark", DurationS: 1, Seed: 2}
	other.Normalize()
	mismatch, err := New(other, WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := mismatch.Sim().Restore(blob); err == nil {
		t.Error("restoring an odroid snapshot into a nexus engine succeeded")
	}
}

// TestSnapshotGoldenBlob pins the serialized layout: the checked-in
// fixture must restore into today's engine and the engine must
// re-serialize it byte-for-byte. A layout change without a version
// bump fails here first. Refresh with -update-snapshot-golden.
func TestSnapshotGoldenBlob(t *testing.T) {
	spec := Scenario{
		Platform:     PlatformOdroidXU3,
		Workload:     "3dmark+bml",
		Governor:     GovAppAware,
		LimitC:       60,
		DurationS:    1,
		Seed:         42,
		ModelOnlyBML: true,
	}
	spec.Normalize()
	golden := filepath.Join("testdata", "snapshot_v1.golden")

	if *updateSnapshotGolden {
		eng, err := New(spec, WithoutRecording())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSteps(400); err != nil {
			t.Fatal(err)
		}
		blob := finalSnapshot(t, eng)
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(blob))
	}

	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-snapshot-golden)", err)
	}
	eng, err := New(spec, WithoutRecording())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Sim().Restore(blob); err != nil {
		t.Fatalf("restore golden: %v", err)
	}
	resaved := finalSnapshot(t, eng)
	if !bytes.Equal(resaved, blob) {
		t.Fatalf("restore∘snapshot is not the identity on the golden blob (layout drift without a version bump?)")
	}
	// The restored engine is usable: it finishes the scenario.
	if err := eng.RunSteps(600); err != nil {
		t.Fatalf("restored engine cannot continue: %v", err)
	}
}
