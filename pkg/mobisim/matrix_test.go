package mobisim

// The matrix expansion's order and seeding, which every sweep and
// search result depends on.

import (
	"fmt"
	"reflect"
	"testing"
)

// TestMatrixScenariosExpansion pins the expansion's counts and per-cell
// labels: Index is the position, every cell carries the matrix
// duration, replicates are the innermost axis, and the closed-form
// sizes agree with the expansion.
func TestMatrixScenariosExpansion(t *testing.T) {
	tests := []struct {
		name       string
		m          Matrix
		size, want int
	}{
		{
			name: "single cell",
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3}, Workloads: []string{"3dmark+bml"},
				Governors: []string{GovAppAware}, LimitsC: []float64{60},
				Replicates: 1, DurationS: 10, BaseSeed: 1,
			},
			size: 1, want: 1,
		},
		{
			name: "limits by replicates",
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3}, Workloads: []string{"3dmark+bml"},
				Governors: []string{GovAppAware}, LimitsC: []float64{52, 58, 64, 70},
				Replicates: 3, DurationS: 10, BaseSeed: 1,
			},
			size: 12, want: 12,
		},
		{
			name: "full cartesian", // the agnostic arm's limits collapse
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3, PlatformNexus6P}, Workloads: []string{"3dmark", "3dmark+bml", "nenamark"},
				Governors: []string{GovAppAware, GovNone}, LimitsC: []float64{55, 65},
				Replicates: 2, DurationS: 10, BaseSeed: 1,
			},
			size: 48, want: 36, // 2 x 3 x (2 limits + 1 collapsed) x 2
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cells, err := ExpandCells(tt.m)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != tt.want {
				t.Fatalf("want %d cells, got %d", tt.want, len(cells))
			}
			if got := tt.m.ExpandedSize(); got != tt.want {
				t.Errorf("ExpandedSize() = %d, want %d", got, tt.want)
			}
			if got := tt.m.Size(); got != tt.size {
				t.Errorf("Size() = %d, want %d", got, tt.size)
			}
			for i, c := range cells {
				if c.Index != i {
					t.Fatalf("cell %d has Index %d", i, c.Index)
				}
				if c.Spec.DurationS != tt.m.DurationS {
					t.Fatalf("cell %d duration %v, want %v", i, c.Spec.DurationS, tt.m.DurationS)
				}
				if c.Replicate != i%tt.m.Replicates {
					t.Fatalf("cell %d replicate %d; replicates must be the innermost axis", i, c.Replicate)
				}
			}
		})
	}
}

// TestMatrixScenariosOrdering pins the expansion order byte for byte:
// limit-aware arms first as one block (platform → workload → governor
// → limit → replicate), then the limit-agnostic arms as a tail with
// the limits axis collapsed to 0, whatever order the governors axis
// lists them in. Every replicate shares its seed across cells (the
// paired design), and two expansions agree exactly.
func TestMatrixScenariosOrdering(t *testing.T) {
	label := func(c Cell) string {
		return fmt.Sprintf("%s|%s|%s|%g|r%d", c.Spec.Platform, c.Spec.Workload, c.Spec.Governor, c.Spec.LimitC, c.Replicate)
	}
	tests := []struct {
		name string
		m    Matrix
		want []string
	}{
		{
			name: "aware only",
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3}, Workloads: []string{"3dmark", "nenamark"},
				Governors: []string{GovAppAware}, LimitsC: []float64{60, 50},
				Replicates: 2, DurationS: 1, BaseSeed: 7,
			},
			want: []string{
				"odroid-xu3|3dmark|appaware|60|r0", "odroid-xu3|3dmark|appaware|60|r1",
				"odroid-xu3|3dmark|appaware|50|r0", "odroid-xu3|3dmark|appaware|50|r1",
				"odroid-xu3|nenamark|appaware|60|r0", "odroid-xu3|nenamark|appaware|60|r1",
				"odroid-xu3|nenamark|appaware|50|r0", "odroid-xu3|nenamark|appaware|50|r1",
			},
		},
		{
			name: "agnostic only",
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3}, Workloads: []string{"3dmark"},
				Governors: []string{GovNone, GovIPA}, LimitsC: []float64{60, 50},
				Replicates: 2, DurationS: 1, BaseSeed: 7,
			},
			want: []string{
				"odroid-xu3|3dmark|none|0|r0", "odroid-xu3|3dmark|none|0|r1",
				"odroid-xu3|3dmark|ipa|0|r0", "odroid-xu3|3dmark|ipa|0|r1",
			},
		},
		{
			name: "mixed, agnostic arm listed first",
			m: Matrix{
				Platforms: []string{PlatformOdroidXU3, PlatformNexus6P}, Workloads: []string{"3dmark"},
				Governors: []string{GovNone, GovAppAware}, LimitsC: []float64{55, 65},
				Replicates: 2, DurationS: 1, BaseSeed: 7,
			},
			want: []string{
				"odroid-xu3|3dmark|appaware|55|r0", "odroid-xu3|3dmark|appaware|55|r1",
				"odroid-xu3|3dmark|appaware|65|r0", "odroid-xu3|3dmark|appaware|65|r1",
				"nexus6p|3dmark|appaware|55|r0", "nexus6p|3dmark|appaware|55|r1",
				"nexus6p|3dmark|appaware|65|r0", "nexus6p|3dmark|appaware|65|r1",
				"odroid-xu3|3dmark|none|0|r0", "odroid-xu3|3dmark|none|0|r1",
				"nexus6p|3dmark|none|0|r0", "nexus6p|3dmark|none|0|r1",
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cells, err := ExpandCells(tt.m)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(cells))
			for i, c := range cells {
				got[i] = label(c)
				if want := deriveSeed(tt.m.BaseSeed, c.Replicate); c.Spec.Seed != want {
					t.Errorf("cell %d seed %d, want deriveSeed(%d, %d) = %d", i, c.Spec.Seed, tt.m.BaseSeed, c.Replicate, want)
				}
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("expansion order:\ngot  %q\nwant %q", got, tt.want)
			}
			again, err := ExpandCells(tt.m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cells, again) {
				t.Fatal("two expansions of one matrix differ")
			}
		})
	}
}

func TestMatrixScenariosValidation(t *testing.T) {
	valid := Matrix{
		Platforms: []string{PlatformOdroidXU3}, Workloads: []string{"3dmark+bml"},
		Governors: []string{GovAppAware}, LimitsC: []float64{60},
		Replicates: 1, DurationS: 1,
	}
	tests := []struct {
		name  string
		bust  func(*Matrix)
		valid bool
	}{
		{"valid", func(*Matrix) {}, true},
		{"no platforms", func(m *Matrix) { m.Platforms = nil }, false},
		{"no workloads", func(m *Matrix) { m.Workloads = nil }, false},
		{"no governors", func(m *Matrix) { m.Governors = nil }, false},
		{"no limits", func(m *Matrix) { m.LimitsC = nil }, false},
		{"zero replicates", func(m *Matrix) { m.Replicates = 0 }, false},
		{"negative replicates", func(m *Matrix) { m.Replicates = -1 }, false},
		{"zero duration", func(m *Matrix) { m.DurationS = 0 }, false},
		{"negative duration", func(m *Matrix) { m.DurationS = -5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := valid
			tt.bust(&m)
			// Validate, not ExpandCells: expansion normalizes first,
			// filling a missing replicate count or limits axis.
			err := m.Validate()
			if tt.valid && err != nil {
				t.Fatalf("valid matrix rejected: %v", err)
			}
			if !tt.valid && err == nil {
				t.Fatal("invalid matrix accepted")
			}
		})
	}
}

// TestDeriveSeedStability pins the replicate seed derivation.
func TestDeriveSeedStability(t *testing.T) {
	// Golden values pin the derivation across refactors: a silent change
	// would reshuffle every recorded sweep.
	golden := []struct {
		base      int64
		replicate int
		want      int64
	}{
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{1, 2, -534904783426661026},
		{42, 0, -4767286540954276203},
		{-3, 0, -621772950581698083},
	}
	for _, g := range golden {
		if got := deriveSeed(g.base, g.replicate); got != g.want {
			t.Errorf("deriveSeed(%d, %d) = %d, want %d", g.base, g.replicate, got, g.want)
		}
	}
	// Distinctness across replicates and bases.
	seen := make(map[int64]string)
	for base := int64(0); base < 8; base++ {
		for r := 0; r < 8; r++ {
			s := deriveSeed(base, r)
			key := fmt.Sprintf("base %d replicate %d", base, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
