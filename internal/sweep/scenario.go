// Package sweep is the parallel scenario-sweep engine: it expands a
// declarative parameter matrix into fully-specified scenarios, runs
// work items on TaskPool, the repository's one worker substrate, and
// folds the per-scenario metrics back into statistical summaries.
//
// The package is deliberately simulation-agnostic: scenarios carry only
// axis values (platform, workload, governor arm, thermal limit, seed),
// and the caller — in this repo, mobisim.RunScenarios — turns them into
// pool tasks. Tasks write disjoint result slots and the simulator is
// deterministic (same seed ⇒ bitwise-identical run), so results never
// depend on worker interleaving: a pool with N workers produces
// byte-identical output to a serial pass.
package sweep

import (
	"fmt"
	"math"
)

// Scenario is one fully-specified simulation point of a sweep matrix.
type Scenario struct {
	// Index is the scenario's position in the expanded matrix; results
	// are reported in Index order regardless of completion order.
	Index int
	// Platform names the device model ("odroid-xu3", "nexus6p").
	Platform string
	// Workload names the foreground app, with an optional "+bml"
	// suffix adding the basicmath-large background task.
	Workload string
	// Governor names the thermal-management arm ("appaware", "ipa",
	// "stepwise", "none").
	Governor string
	// LimitC is the thermal limit for limit-aware arms; 0 keeps the
	// platform default.
	LimitC float64
	// DurationS is the simulated duration in seconds.
	DurationS float64
	// Replicate numbers the seed replicate within the parameter cell.
	Replicate int
	// Seed is the simulation seed for this scenario.
	Seed int64
}

// Key identifies the scenario's parameter cell — every axis except the
// replicate — and is the grouping key of the aggregation layer.
func (s Scenario) Key() string {
	return fmt.Sprintf("%s|%s|%s|%g|%gs", s.Platform, s.Workload, s.Governor, s.LimitC, s.DurationS)
}

// Matrix declares a sweep as per-axis value lists. Scenarios expands
// the cartesian product of all axes times Replicates seed replicates.
type Matrix struct {
	// Platforms, Workloads, Governors and LimitsC are the sweep axes;
	// each needs at least one value.
	Platforms []string
	Workloads []string
	Governors []string
	LimitsC   []float64
	// Replicates is the number of seed replicates per parameter cell
	// (at least 1).
	Replicates int
	// DurationS is the simulated duration of every scenario.
	DurationS float64
	// BaseSeed anchors per-replicate seed derivation.
	BaseSeed int64
}

// Size returns the number of scenarios the matrix expands into.
func (m Matrix) Size() int {
	return len(m.Platforms) * len(m.Workloads) * len(m.Governors) * len(m.LimitsC) * m.Replicates
}

// MaxScenarios bounds a single matrix expansion; it exists so a
// malformed or hostile matrix (say, a million replicates decoded from
// JSON) fails with a clear error instead of attempting to materialize
// the expansion.
const MaxScenarios = 1 << 20

// Validate checks the matrix's axes, replicate count, duration and
// expansion size without materializing anything. Scenarios calls it
// first, and the pkg/mobisim facade builds its stricter validation on
// top of it, so the scalar rules live in exactly one place.
func (m Matrix) Validate() error {
	switch {
	case len(m.Platforms) == 0:
		return fmt.Errorf("sweep: matrix needs at least one platform")
	case len(m.Workloads) == 0:
		return fmt.Errorf("sweep: matrix needs at least one workload")
	case len(m.Governors) == 0:
		return fmt.Errorf("sweep: matrix needs at least one governor")
	case len(m.LimitsC) == 0:
		return fmt.Errorf("sweep: matrix needs at least one thermal limit")
	case m.Replicates < 1:
		return fmt.Errorf("sweep: matrix needs at least one replicate, got %d", m.Replicates)
	case !(m.DurationS > 0) || math.IsInf(m.DurationS, 0): // rejects NaN too
		return fmt.Errorf("sweep: matrix duration must be positive and finite, got %v", m.DurationS)
	}
	// The axis-length product can overflow int; bound it in float space
	// before anything is allocated.
	if size := float64(len(m.Platforms)) * float64(len(m.Workloads)) * float64(len(m.Governors)) *
		float64(len(m.LimitsC)) * float64(m.Replicates); size > MaxScenarios {
		return fmt.Errorf("sweep: matrix expands to %.0f scenarios, exceeding the %d-scenario bound", size, MaxScenarios)
	}
	return nil
}

// Scenarios cartesian-expands the matrix in platform-major,
// replicate-minor order: platforms, then workloads, governors, limits,
// and replicates innermost. Every replicate r across all parameter
// cells shares the seed DeriveSeed(BaseSeed, r), giving the sweep a
// paired design: points that differ only in a parameter axis see
// identical random streams, exactly like the original LimitSweep
// reusing one seed across limits.
func (m Matrix) Scenarios() ([]Scenario, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make([]Scenario, 0, m.Size())
	for _, p := range m.Platforms {
		for _, w := range m.Workloads {
			for _, g := range m.Governors {
				for _, l := range m.LimitsC {
					for r := 0; r < m.Replicates; r++ {
						out = append(out, Scenario{
							Index:     len(out),
							Platform:  p,
							Workload:  w,
							Governor:  g,
							LimitC:    l,
							DurationS: m.DurationS,
							Replicate: r,
							Seed:      DeriveSeed(m.BaseSeed, r),
						})
					}
				}
			}
		}
	}
	return out, nil
}

// DeriveSeed maps (base, replicate) to a scenario seed with a
// SplitMix64 finalizer: deterministic, stable across releases (pinned
// by a golden test), and well-spread even for adjacent inputs. The
// derived stream is what makes replicate seeds independent while the
// paired design keeps them equal across parameter cells.
func DeriveSeed(base int64, replicate int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(uint32(replicate)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
