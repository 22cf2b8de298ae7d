package platform

// This file defines the two platform presets the paper uses. OPP ladders
// follow the real devices (the paper names the Adreno 430 frequencies
// and the 384/960 MHz A57 points explicitly); power and thermal
// constants are synthetic calibrations chosen to reproduce the paper's
// qualitative dynamics.
//
// The presets' numeric parameters, OPP ladders included, live in the
// embedded spec files (specs/nexus6p.json, specs/odroid-xu3.json);
// Nexus6P and OdroidXU3 compile them through the same declarative path
// user platforms take. internal/platform/frozen keeps the original Go
// constructors and ladders, and the differential tests pin
// spec-compiled output bitwise against them.

// Nexus6P builds the Snapdragon 810 phone model of Section III:
// 4×Cortex-A53 + 4×Cortex-A57 + Adreno 430, a package temperature
// sensor (the one the default governors act on), and a skin node, all
// in a passive (fanless) phone enclosure. The parameters come from the
// embedded specs/nexus6p.json, pinned bitwise against the frozen Go
// constructor.
func Nexus6P(seed int64) *Platform {
	return mustCompileBuiltin("nexus6p", seed)
}

// OdroidXU3 builds the Exynos 5422 board model of Section IV:
// 4×Cortex-A15 + 4×Cortex-A7 + Mali-T628 with per-rail power sensors,
// a big-core temperature sensor, and the fan disabled (the paper
// disables it "since it is not feasible for mobile platforms"). The
// parameters come from the embedded specs/odroid-xu3.json, pinned
// bitwise against the frozen Go constructor.
func OdroidXU3(seed int64) *Platform {
	return mustCompileBuiltin("odroid-xu3", seed)
}
