package detrand

import (
	"math/rand"
	"testing"
)

// TestStreamEquivalence pins the load-bearing property: a rand.Rand
// over a counted source produces the exact stream of one over the bare
// source, across every derived-generator family the simulator uses
// (Float64, NormFloat64, Int63n, Uint64). If the wrapper ever stopped
// implementing Source64, rand.Rand would synthesize Uint64 from two
// Int63 calls and this test would fail on the first NormFloat64.
func TestStreamEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, g, w)
				}
			case 1:
				if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, g, w)
				}
			case 2:
				if w, g := want.Int63n(1000), got.Int63n(1000); w != g {
					t.Fatalf("seed %d draw %d: Int63n %v != %v", seed, i, g, w)
				}
			case 3:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 %v != %v", seed, i, g, w)
				}
			}
		}
	}
}

// TestRestoreRepositions pins snapshot semantics: Restore(seed, draws)
// reproduces the continuation stream exactly, including through a
// shared rand.Rand whose pointer survives the restore.
func TestRestoreRepositions(t *testing.T) {
	src := New(99)
	rng := rand.New(src)
	for i := 0; i < 137; i++ {
		rng.NormFloat64()
	}
	seed, draws := src.State()
	var want []float64
	for i := 0; i < 50; i++ {
		want = append(want, rng.Float64())
	}

	// Restore in place: the rand.Rand wrapper is stateless for Float64
	// and NormFloat64 streams given the source, so the same rng must
	// replay the continuation.
	src.Restore(seed, draws)
	for i := 0; i < 50; i++ {
		if got := rng.Float64(); got != want[i] {
			t.Fatalf("draw %d after restore: %v != %v", i, got, want[i])
		}
	}

	// And a freshly built source at the same position agrees too.
	src2 := New(1)
	src2.Restore(seed, draws)
	rng2 := rand.New(src2)
	for i := 0; i < 50; i++ {
		if got := rng2.Float64(); got != want[i] {
			t.Fatalf("fresh source draw %d: %v != %v", i, got, want[i])
		}
	}
}

func TestDrawCounting(t *testing.T) {
	src := New(5)
	if _, draws := src.State(); draws != 0 {
		t.Fatalf("fresh source draws = %d", draws)
	}
	src.Int63()
	src.Uint64()
	if seed, draws := src.State(); seed != 5 || draws != 2 {
		t.Fatalf("State = (%d, %d), want (5, 2)", seed, draws)
	}
	src.Seed(6)
	if seed, draws := src.State(); seed != 6 || draws != 0 {
		t.Fatalf("after Seed: (%d, %d)", seed, draws)
	}
}

// TestLazySeedingMatchesEagerStream pins deferred seeding: over a
// seeded random interleaving of Int63, Uint64, Seed, Restore and State,
// a counted source yields exactly the values and positions of an
// eagerly seeded rand.NewSource kept in step by hand. Fresh sources are
// mixed in, so Seed and Restore also land on sources never drawn from.
func TestLazySeedingMatchesEagerStream(t *testing.T) {
	ops := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 50; trial++ {
		seed := ops.Int63n(1000) - 500
		got := New(seed)
		want := rand.NewSource(seed).(rand.Source64)
		wantSeed, wantDraws := seed, uint64(0)
		for i := 0; i < 200; i++ {
			switch ops.Intn(6) {
			case 0:
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("trial %d op %d: Int63 %d != %d", trial, i, g, w)
				}
				wantDraws++
			case 1:
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("trial %d op %d: Uint64 %d != %d", trial, i, g, w)
				}
				wantDraws++
			case 2:
				wantSeed, wantDraws = ops.Int63n(1000), 0
				want.Seed(wantSeed)
				got.Seed(wantSeed)
			case 3:
				wantSeed, wantDraws = ops.Int63n(1000), uint64(ops.Intn(40))
				want.Seed(wantSeed)
				for d := uint64(0); d < wantDraws; d++ {
					want.Uint64()
				}
				got.Restore(wantSeed, wantDraws)
			case 4:
				// Start over on a source never drawn from.
				got = New(wantSeed)
				want.Seed(wantSeed)
				wantDraws = 0
			}
			if s, d := got.State(); s != wantSeed || d != wantDraws {
				t.Fatalf("trial %d op %d: State = (%d, %d), want (%d, %d)", trial, i, s, d, wantSeed, wantDraws)
			}
		}
	}
}

// TestUndrawnSourceStaysUnseeded pins when seeding happens: New, Seed,
// State and a zero-draw Restore leave the math/rand source unseeded;
// the first draw, or a Restore that burns draws, seeds it.
func TestUndrawnSourceStaysUnseeded(t *testing.T) {
	src := New(7)
	src.Seed(8)
	src.Restore(9, 0)
	src.State()
	if src.src != nil {
		t.Fatal("a source never drawn from is seeded")
	}
	src.Int63()
	if src.src == nil {
		t.Fatal("a drawn source is unseeded")
	}
	restored := New(1)
	restored.Restore(9, 3)
	if restored.src == nil {
		t.Fatal("Restore burning draws left the source unseeded")
	}
	if g, w := restored.Uint64(), func() uint64 {
		ref := rand.NewSource(9).(rand.Source64)
		for i := 0; i < 3; i++ {
			ref.Uint64()
		}
		return ref.Uint64()
	}(); g != w {
		t.Fatalf("after Restore(9, 3): Uint64 %d, want %d", g, w)
	}
}
