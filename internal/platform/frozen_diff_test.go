package platform_test

import (
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/platform/frozen"
)

// The presets now compile from embedded JSON spec files. These tests
// pin that path bitwise against the frozen pre-refactor Go
// constructors: the converted Spec structs must be deeply equal —
// every node, coupling, OPP, power constant and sensor parameter —
// and the wired platforms must agree on the derived quantities the
// simulator consumes. Deep spec equality is what makes every
// downstream sweep byte-identical (the engine is a pure function of
// Spec and seed).

func TestSpecCompiledPresetsMatchFrozenSpecs(t *testing.T) {
	cases := []struct {
		name   string
		frozen func(int64) platform.Spec
	}{
		{"nexus6p", frozen.Nexus6PSpec},
		{"odroid-xu3", frozen.OdroidXU3Spec},
	}
	for _, tc := range cases {
		f, ok := platform.BuiltinSpec(tc.name)
		if !ok {
			t.Fatalf("no embedded spec %q", tc.name)
		}
		for _, seed := range []int64{0, 1, 42} {
			got, err := f.Spec(seed)
			if err != nil {
				t.Fatalf("%s: convert: %v", tc.name, err)
			}
			want := tc.frozen(seed)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: spec-file conversion diverged from frozen constructor:\ngot:  %+v\nwant: %+v",
					tc.name, seed, got, want)
			}
		}
	}
}

func TestSpecCompiledPlatformsMatchFrozenPlatforms(t *testing.T) {
	cases := []struct {
		name   string
		spec   func(int64) *platform.Platform
		frozen func(int64) *platform.Platform
	}{
		{"nexus6p", platform.Nexus6P, frozen.Nexus6P},
		{"odroid-xu3", platform.OdroidXU3, frozen.OdroidXU3},
	}
	for _, tc := range cases {
		got, want := tc.spec(3), tc.frozen(3)
		if !reflect.DeepEqual(got.Spec(), want.Spec()) {
			t.Errorf("%s: wired platform spec diverged from frozen constructor", tc.name)
		}
		if got.ThermalLimitK() != want.ThermalLimitK() || got.AmbientK() != want.AmbientK() {
			t.Errorf("%s: thermal limit/ambient diverged", tc.name)
		}
		if got.MemPower(2e9) != want.MemPower(2e9) {
			t.Errorf("%s: memory rail model diverged", tc.name)
		}
		gp, err1 := got.StabilityParams()
		wp, err2 := want.StabilityParams()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: stability params: %v / %v", tc.name, err1, err2)
		}
		if gp != wp {
			t.Errorf("%s: stability params diverged: %+v vs %+v", tc.name, gp, wp)
		}
		for _, id := range platform.DomainIDs() {
			if !reflect.DeepEqual(got.Domain(id).Table(), want.Domain(id).Table()) {
				t.Errorf("%s: domain %s OPP table diverged", tc.name, id)
			}
			if !reflect.DeepEqual(got.Model(id), want.Model(id)) {
				t.Errorf("%s: domain %s power model diverged", tc.name, id)
			}
			if got.Cores(id) != want.Cores(id) || got.Rail(id) != want.Rail(id) || got.Node(id) != want.Node(id) {
				t.Errorf("%s: domain %s wiring diverged", tc.name, id)
			}
		}
		// The thermal networks must agree in every node, coupling and
		// temperature.
		if !reflect.DeepEqual(got.Net, want.Net) {
			t.Errorf("%s: thermal network diverged", tc.name)
		}
	}
}
