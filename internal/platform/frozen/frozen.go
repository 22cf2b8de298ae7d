// Package frozen preserves the original Go preset constructors exactly
// as they were before the presets moved to embedded spec files. It is a
// reference implementation for differential tests only: the spec-file
// path (platform.Nexus6P / platform.OdroidXU3, compiled from
// specs/*.json) must keep producing platforms deeply equal to these
// constructors, which is what proves sweep output stayed bitwise
// unchanged across the declarative-platform refactor.
//
// Do not edit the numbers here. If a preset legitimately needs to
// change, change the spec file and this copy together, in a commit
// whose diff shows both.
package frozen

import (
	"repro/internal/dvfs"
	"repro/internal/platform"
	"repro/internal/power"
)

// Nexus6PSpec is the frozen Section III phone spec, verbatim from the
// pre-spec-layer constructor.
func Nexus6PSpec(seed int64) platform.Spec {
	return platform.Spec{
		Name:     "nexus6p",
		AmbientC: 25,
		Nodes: []platform.NodeSpec{
			{Name: "little", CapacitanceJPerK: 1.2},
			{Name: "big", CapacitanceJPerK: 1.5},
			{Name: "gpu", CapacitanceJPerK: 1.5},
			{Name: "mem", CapacitanceJPerK: 1.0},
			{Name: "pkg", CapacitanceJPerK: 10, GAmbientWPerK: 0.035},
			{Name: "skin", CapacitanceJPerK: 30, GAmbientWPerK: 0.10},
		},
		Couplings: []platform.CouplingSpec{
			{A: "little", B: "pkg", GWPerK: 0.30},
			{A: "big", B: "pkg", GWPerK: 0.35},
			{A: "gpu", B: "pkg", GWPerK: 0.26},
			{A: "mem", B: "pkg", GWPerK: 0.40},
			{A: "pkg", B: "skin", GWPerK: 0.30},
		},
		Domains: []platform.DomainSpec{
			{
				ID: platform.DomLittle, Table: CortexA53Table(), Cores: 4,
				TransitionLatencyS: 0.001,
				Model: power.DomainModel{
					Name: "little", CeffF: 2.0e-10, IdleW: 0.03,
					Leakage: power.LeakageParams{K: 2.0e-4, Q: 1800},
				},
				Rail: power.RailLittle, NodeName: "little",
			},
			{
				ID: platform.DomBig, Table: CortexA57Table(), Cores: 4,
				TransitionLatencyS: 0.001,
				Model: power.DomainModel{
					Name: "big", CeffF: 7.0e-10, IdleW: 0.05,
					Leakage: power.LeakageParams{K: 6.0e-4, Q: 1800},
				},
				Rail: power.RailBig, NodeName: "big",
			},
			{
				ID: platform.DomGPU, Table: Adreno430Table(), Cores: 1,
				TransitionLatencyS: 0.002,
				Model: power.DomainModel{
					Name: "gpu", CeffF: 4.2e-9, IdleW: 0.04,
					Leakage: power.LeakageParams{K: 4.0e-4, Q: 1800},
				},
				Rail: power.RailGPU, NodeName: "gpu",
			},
		},
		SensorNode:        "pkg",
		SensorPeriodS:     0.01,
		SensorNoiseK:      0.05,
		SensorResolutionK: 0.1,
		MemIdleW:          0.10,
		MemPerGHz:         0.04,
		ThermalLimitC:     43,
		Seed:              seed,
	}
}

// OdroidXU3Spec is the frozen Section IV board spec, verbatim from the
// pre-spec-layer constructor.
func OdroidXU3Spec(seed int64) platform.Spec {
	return platform.Spec{
		Name:     "odroid-xu3",
		AmbientC: 25,
		Nodes: []platform.NodeSpec{
			{Name: "little", CapacitanceJPerK: 1.5},
			{Name: "big", CapacitanceJPerK: 2.0},
			{Name: "gpu", CapacitanceJPerK: 2.0},
			{Name: "mem", CapacitanceJPerK: 1.0},
			{Name: "board", CapacitanceJPerK: 5, GAmbientWPerK: 0.1},
		},
		Couplings: []platform.CouplingSpec{
			{A: "little", B: "board", GWPerK: 0.9},
			{A: "big", B: "board", GWPerK: 0.9},
			{A: "gpu", B: "board", GWPerK: 0.9},
			{A: "mem", B: "board", GWPerK: 0.6},
			{A: "big", B: "gpu", GWPerK: 0.3},
			{A: "big", B: "little", GWPerK: 0.3},
		},
		Domains: []platform.DomainSpec{
			{
				ID: platform.DomLittle, Table: CortexA7Table(), Cores: 4,
				TransitionLatencyS: 0.001,
				Model: power.DomainModel{
					Name: "little", CeffF: 1.1e-10, IdleW: 0.03,
					Leakage: power.LeakageParams{K: 1.0e-4, Q: 1800},
				},
				Rail: power.RailLittle, NodeName: "little",
			},
			{
				ID: platform.DomBig, Table: CortexA15Table(), Cores: 4,
				TransitionLatencyS: 0.001,
				Model: power.DomainModel{
					Name: "big", CeffF: 6.0e-10, IdleW: 0.06,
					Leakage: power.LeakageParams{K: 3.0e-4, Q: 1800},
				},
				Rail: power.RailBig, NodeName: "big",
			},
			{
				ID: platform.DomGPU, Table: MaliT628Table(), Cores: 1,
				TransitionLatencyS: 0.002,
				Model: power.DomainModel{
					Name: "gpu", CeffF: 2.2e-9, IdleW: 0.05,
					Leakage: power.LeakageParams{K: 2.0e-4, Q: 1800},
				},
				Rail: power.RailGPU, NodeName: "gpu",
			},
		},
		SensorNode:        "big",
		SensorPeriodS:     0.01,
		SensorNoiseK:      0.05,
		SensorResolutionK: 0.1,
		MemIdleW:          0.12,
		MemPerGHz:         0.05,
		ThermalLimitC:     60,
		Seed:              seed,
	}
}

// Nexus6P wires the frozen phone spec, exactly like the original
// constructor did.
func Nexus6P(seed int64) *platform.Platform {
	return platform.MustNew(Nexus6PSpec(seed))
}

// OdroidXU3 wires the frozen board spec, exactly like the original
// constructor did.
func OdroidXU3(seed int64) *platform.Platform {
	return platform.MustNew(OdroidXU3Spec(seed))
}

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
