package platform

import (
	"repro/internal/dvfs"
)

// This file defines the two platform presets the paper uses. OPP ladders
// follow the real devices (the paper names the Adreno 430 frequencies
// and the 384/960 MHz A57 points explicitly); power and thermal
// constants are synthetic calibrations chosen to reproduce the paper's
// qualitative dynamics.
//
// The presets' numeric parameters live in the embedded spec files
// (specs/nexus6p.json, specs/odroid-xu3.json); Nexus6P and OdroidXU3
// compile them through the same declarative path user platforms take.
// internal/platform/frozen keeps the original Go constructors, and the
// differential tests pin spec-compiled output bitwise against them.

// Adreno430Table is the Nexus 6P GPU OPP ladder; the paper's Figures 2
// and 4 bin residency over exactly these frequencies.
func Adreno430Table() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 180e6, VoltageV: 0.800},
		dvfs.OPP{FreqHz: 305e6, VoltageV: 0.850},
		dvfs.OPP{FreqHz: 390e6, VoltageV: 0.900},
		dvfs.OPP{FreqHz: 450e6, VoltageV: 0.950},
		dvfs.OPP{FreqHz: 510e6, VoltageV: 1.000},
		dvfs.OPP{FreqHz: 600e6, VoltageV: 1.075},
	)
}

// CortexA57Table is the Nexus 6P big-cluster ladder (subset of the
// Snapdragon 810 points, keeping the 384 and 960 MHz OPPs the paper's
// Figure 6 reports).
func CortexA57Table() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 384e6, VoltageV: 0.850},
		dvfs.OPP{FreqHz: 633e6, VoltageV: 0.900},
		dvfs.OPP{FreqHz: 960e6, VoltageV: 0.975},
		dvfs.OPP{FreqHz: 1248e6, VoltageV: 1.050},
		dvfs.OPP{FreqHz: 1555e6, VoltageV: 1.125},
		dvfs.OPP{FreqHz: 1958e6, VoltageV: 1.225},
	)
}

// CortexA53Table is the Nexus 6P little-cluster ladder.
func CortexA53Table() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 384e6, VoltageV: 0.800},
		dvfs.OPP{FreqHz: 600e6, VoltageV: 0.850},
		dvfs.OPP{FreqHz: 768e6, VoltageV: 0.900},
		dvfs.OPP{FreqHz: 960e6, VoltageV: 0.950},
		dvfs.OPP{FreqHz: 1248e6, VoltageV: 1.025},
		dvfs.OPP{FreqHz: 1555e6, VoltageV: 1.100},
	)
}

// Nexus6P builds the Snapdragon 810 phone model of Section III:
// 4×Cortex-A53 + 4×Cortex-A57 + Adreno 430, a package temperature
// sensor (the one the default governors act on), and a skin node, all
// in a passive (fanless) phone enclosure. The parameters come from the
// embedded specs/nexus6p.json, pinned bitwise against the frozen Go
// constructor.
func Nexus6P(seed int64) *Platform {
	return mustCompileBuiltin("nexus6p", seed)
}

// MaliT628Table is the Odroid-XU3 GPU ladder.
func MaliT628Table() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 177e6, VoltageV: 0.850},
		dvfs.OPP{FreqHz: 266e6, VoltageV: 0.900},
		dvfs.OPP{FreqHz: 350e6, VoltageV: 0.950},
		dvfs.OPP{FreqHz: 420e6, VoltageV: 1.000},
		dvfs.OPP{FreqHz: 480e6, VoltageV: 1.025},
		dvfs.OPP{FreqHz: 543e6, VoltageV: 1.050},
		dvfs.OPP{FreqHz: 600e6, VoltageV: 1.100},
	)
}

// CortexA15Table is the Odroid-XU3 big-cluster ladder.
func CortexA15Table() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 200e6, VoltageV: 0.900},
		dvfs.OPP{FreqHz: 500e6, VoltageV: 0.925},
		dvfs.OPP{FreqHz: 800e6, VoltageV: 0.975},
		dvfs.OPP{FreqHz: 1100e6, VoltageV: 1.050},
		dvfs.OPP{FreqHz: 1400e6, VoltageV: 1.125},
		dvfs.OPP{FreqHz: 1700e6, VoltageV: 1.2375},
		dvfs.OPP{FreqHz: 2000e6, VoltageV: 1.3625},
	)
}

// CortexA7Table is the Odroid-XU3 little-cluster ladder.
func CortexA7Table() *dvfs.Table {
	return dvfs.MustTable(
		dvfs.OPP{FreqHz: 200e6, VoltageV: 0.900},
		dvfs.OPP{FreqHz: 500e6, VoltageV: 0.925},
		dvfs.OPP{FreqHz: 800e6, VoltageV: 0.975},
		dvfs.OPP{FreqHz: 1100e6, VoltageV: 1.075},
		dvfs.OPP{FreqHz: 1400e6, VoltageV: 1.150},
	)
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
