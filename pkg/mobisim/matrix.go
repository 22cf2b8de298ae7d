package mobisim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Matrix is the declarative, JSON-serializable sweep counterpart of
// Scenario: per-axis value lists whose cartesian product (times seed
// replicates) expands into many scenarios. RunSweep executes the
// expansion on a parallel worker pool and folds the results into
// per-cell statistics.
type Matrix struct {
	// Platforms, Workloads, Governors and LimitsC are the sweep axes;
	// each needs at least one value. Platforms accepts the built-in
	// presets and any name registered via RegisterPlatform; Workloads
	// accepts the app models and the generated "gen-*" kinds, whose
	// seed replicates explore the stochastic space.
	Platforms []string  `json:"platforms"`
	Workloads []string  `json:"workloads"`
	Governors []string  `json:"governors"`
	LimitsC   []float64 `json:"limits_c"`
	// Replicates is the number of seed replicates per parameter cell
	// (0 defaults to 1).
	Replicates int `json:"replicates,omitempty"`
	// DurationS is the simulated duration of every scenario.
	DurationS float64 `json:"duration_s"`
	// BaseSeed anchors per-replicate seed derivation.
	BaseSeed int64 `json:"base_seed,omitempty"`
}

// Normalize fills defaults in place: one replicate, and the limits
// axis collapsed to the platform default when absent. Idempotent.
func (m *Matrix) Normalize() {
	if m.Replicates == 0 {
		m.Replicates = 1
	}
	if len(m.LimitsC) == 0 {
		m.LimitsC = []float64{0}
	}
}

// MaxMatrixScenarios bounds how many scenarios one matrix may expand
// into; larger sweeps should be sharded into multiple matrices.
const MaxMatrixScenarios = 65536

// limitAware reports whether a governor arm reads Scenario.LimitC.
// Validation, size accounting and expansion all collapse the limits
// axis for every other arm through this one predicate, so the rule
// cannot drift between them when a new limit-aware arm is added.
func limitAware(governor string) bool { return governor == GovAppAware }

// expandedSize returns the post-collapse scenario count in closed form
// (float to sidestep int overflow on hostile axis lengths): limit-aware
// arms sweep every limit, all others run one cell per limits axis.
func (m Matrix) expandedSize() float64 {
	aware := 0.0
	for _, g := range m.Governors {
		if limitAware(g) {
			aware++
		}
	}
	agnostic := float64(len(m.Governors)) - aware
	limits := float64(len(m.LimitsC))
	if limits == 0 {
		limits = 1
	}
	cellBase := float64(len(m.Platforms)) * float64(len(m.Workloads)) * float64(m.Replicates)
	return cellBase * (aware*limits + agnostic)
}

// Validate checks the matrix cell by cell: every (platform, workload,
// governor, limit) combination the expansion will run must itself be a
// valid scenario, so a sweep can never fail mid-run on a cell the
// engine rejects (e.g. a platform-incompatible governor arm or an
// absolute-zero appaware limit). An axis may not repeat a value: the
// repeat would run identical cells and fold them into one summary as
// fake replicates. The expansion size is bounded by MaxMatrixScenarios.
// Nothing here materializes the expansion.
func (m Matrix) Validate() error {
	switch {
	case len(m.Platforms) == 0:
		return fmt.Errorf("mobisim: matrix needs at least one platform")
	case len(m.Workloads) == 0:
		return fmt.Errorf("mobisim: matrix needs at least one workload")
	case len(m.Governors) == 0:
		return fmt.Errorf("mobisim: matrix needs at least one governor")
	case len(m.LimitsC) == 0:
		return fmt.Errorf("mobisim: matrix needs at least one thermal limit")
	case m.Replicates < 1:
		return fmt.Errorf("mobisim: matrix needs at least one replicate, got %d", m.Replicates)
	case !(m.DurationS > 0) || math.IsInf(m.DurationS, 0): // rejects NaN too
		return fmt.Errorf("mobisim: matrix duration must be positive and finite, got %v", m.DurationS)
	}
	// The bound counts what the expansion executes, after the limits
	// axis collapses for limit-agnostic arms.
	if size := m.expandedSize(); size > MaxMatrixScenarios {
		return fmt.Errorf("mobisim: matrix expands to %.0f scenarios, exceeding the %d-scenario bound", size, MaxMatrixScenarios)
	}
	if v, ok := duplicate(m.Platforms); ok {
		return fmt.Errorf("mobisim: matrix repeats platform %q", v)
	}
	if v, ok := duplicate(m.Workloads); ok {
		return fmt.Errorf("mobisim: matrix repeats workload %q", v)
	}
	if v, ok := duplicate(m.Governors); ok {
		return fmt.Errorf("mobisim: matrix repeats governor %q", v)
	}
	if v, ok := duplicate(m.LimitsC); ok {
		return fmt.Errorf("mobisim: matrix repeats limit %v", v)
	}
	// The limits axis is checked directly, not only through the per-cell
	// probes below: limit-agnostic matrices collapse the axis before
	// probing, which would otherwise let a NaN/Inf limit value through
	// unexamined.
	for i, l := range m.LimitsC {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("mobisim: limits_c[%d] must be finite, got %v", i, l)
		}
	}
	for _, p := range m.Platforms {
		if _, err := LookupPlatform(p, 0); err != nil {
			return err
		}
	}
	for _, g := range m.Governors {
		if !slices.Contains(KnownGovernors(), g) {
			return fmt.Errorf("mobisim: unknown governor arm %q in matrix", g)
		}
	}
	for _, p := range m.Platforms {
		for _, w := range m.Workloads {
			for _, g := range m.Governors {
				// Limit-agnostic arms run with the limits axis collapsed
				// to the platform default: one probe covers the cell group.
				limits := m.LimitsC
				if !limitAware(g) {
					limits = []float64{0}
				}
				for _, l := range limits {
					probe := Scenario{Platform: p, Workload: w, Governor: g, LimitC: l, DurationS: m.DurationS, Seed: 1}
					if err := probe.Validate(); err != nil {
						return fmt.Errorf("mobisim: matrix cell %s/%s/%s: %w", p, w, g, err)
					}
				}
			}
		}
	}
	return nil
}

// duplicate returns the first value xs repeats. Values compare with
// ==, so 0 and -0 are one limit.
func duplicate[T comparable](xs []T) (T, bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero T
	return zero, false
}

// Size returns the number of scenarios the matrix expands into before
// limit-axis collapsing.
func (m Matrix) Size() int {
	m.Normalize()
	return len(m.Platforms) * len(m.Workloads) * len(m.Governors) * len(m.LimitsC) * m.Replicates
}

// ExpandedSize returns the number of scenarios RunSweep will actually
// execute, after collapsing the limits axis for limit-agnostic arms
// (0 for an invalid matrix). The count is closed-form: nothing is
// expanded or allocated.
func (m Matrix) ExpandedSize() int {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return 0
	}
	return int(m.expandedSize())
}

// ParseMatrix decodes, normalizes and validates a JSON matrix spec.
// Unknown fields are rejected.
func ParseMatrix(data []byte) (Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Matrix{}, fmt.Errorf("mobisim: decode matrix: %w", err)
	}
	if dec.More() {
		return Matrix{}, fmt.Errorf("mobisim: trailing data after matrix document")
	}
	m.Normalize()
	if err := m.Validate(); err != nil {
		return Matrix{}, err
	}
	return m, nil
}

// LoadMatrix reads and parses a matrix spec file.
func LoadMatrix(path string) (Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Matrix{}, fmt.Errorf("mobisim: %w", err)
	}
	m, err := ParseMatrix(data)
	if err != nil {
		return Matrix{}, fmt.Errorf("mobisim: %s: %w", path, err)
	}
	return m, nil
}

// JSON renders the matrix as indented JSON with a trailing newline.
func (m Matrix) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("mobisim: encode matrix: %w", err)
	}
	return append(out, '\n'), nil
}

// expand cartesian-expands a normalized, validated matrix into cells,
// replicates innermost. Only appaware reads LimitC, so sweeping limits
// under ipa/stepwise/none would run bitwise-identical duplicate
// simulations: the limit-aware arms come first as one block in
// platform → workload → governor → limit → replicate order, and the
// limit-agnostic arms follow as a tail with the limits axis collapsed
// to 0, the platform default. Every replicate r across all parameter
// cells shares the seed deriveSeed(BaseSeed, r), giving the sweep a
// paired design: points that differ only in a parameter axis see
// identical random streams.
func (m Matrix) expand() []Cell {
	cells := make([]Cell, 0, int(m.expandedSize()))
	for _, aware := range []bool{true, false} {
		limits := m.LimitsC
		if !aware {
			limits = []float64{0}
		}
		for _, p := range m.Platforms {
			for _, w := range m.Workloads {
				for _, g := range m.Governors {
					if limitAware(g) != aware {
						continue
					}
					for _, l := range limits {
						for r := 0; r < m.Replicates; r++ {
							cells = append(cells, Cell{
								Index: len(cells),
								Spec: Scenario{
									Platform: p, Workload: w, Governor: g, LimitC: l,
									DurationS: m.DurationS, Seed: deriveSeed(m.BaseSeed, r),
									ModelOnlyBML: true,
								},
								Replicate: r,
							})
						}
					}
				}
			}
		}
	}
	return cells
}

// deriveSeed maps (base, replicate) to a scenario seed with a
// SplitMix64 finalizer: deterministic, stable across releases (pinned
// by a golden test), and well-spread even for adjacent inputs. The
// derived stream is what makes replicate seeds independent while the
// paired design keeps them equal across parameter cells. Matrix
// replicates, search replicates and the search's per-generation PRNG
// all draw from it.
func deriveSeed(base int64, replicate int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(uint32(replicate)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RunScenarioMetrics runs one scenario in constant memory (recording
// disabled, background kernels model-only) and returns its scalar
// metrics. Every batched executor is byte-identical to it per cell;
// it stays exported so external pools can run single cells.
func RunScenarioMetrics(ctx context.Context, spec Scenario, opts ...Option) (map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spec.ModelOnlyBML = true
	eng, err := New(spec, append([]Option{WithoutRecording()}, opts...)...)
	if err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return eng.Metrics(), nil
}

// SweepStat summarizes one metric across the seed replicates of a cell.
type SweepStat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// SweepSummary is one aggregated parameter cell.
type SweepSummary struct {
	Platform   string               `json:"platform"`
	Workload   string               `json:"workload"`
	Governor   string               `json:"governor"`
	LimitC     float64              `json:"limit_c"`
	DurationS  float64              `json:"duration_s"`
	Replicates int                  `json:"replicates"`
	Metrics    map[string]SweepStat `json:"metrics"`
	// MetricNames lists the metric keys sorted, for deterministic CSV
	// rendering (JSON maps already encode with sorted keys).
	MetricNames []string `json:"-"`
}

// SweepResult is one raw scenario result.
type SweepResult struct {
	Index     int                `json:"index"`
	Platform  string             `json:"platform"`
	Workload  string             `json:"workload"`
	Governor  string             `json:"governor"`
	LimitC    float64            `json:"limit_c"`
	Replicate int                `json:"replicate"`
	Seed      int64              `json:"seed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// SweepOutput is a completed sweep: per-cell summaries and, when
// requested, the raw per-scenario results.
type SweepOutput struct {
	Summaries []SweepSummary `json:"summaries"`
	Results   []SweepResult  `json:"results,omitempty"`
}

// SweepConfig tunes sweep execution.
type SweepConfig struct {
	// Workers is the pool concurrency; <= 0 uses GOMAXPROCS. Results
	// are byte-identical for any worker count.
	Workers int
	// IncludeRaw retains raw per-scenario results in the output.
	IncludeRaw bool
	// BatchWidth is the lockstep lane count: the planner packs cells
	// sharing a thermal topology and duration into units of at most
	// BatchWidth lanes, stepped together through the fused
	// structure-of-arrays kernel on pooled, reusable engines. 1 gives
	// every cold cell and every warm prefix group a unit of its own, so
	// only the forked members of a group share an engine; wider units
	// trade a larger per-worker working set for fused-kernel
	// throughput, with 8 (DefaultBatchWidth) the sweet spot on typical
	// L1 sizes. 0 lets the planner choose: it fills Workers before it
	// widens units, up to DefaultBatchWidth. A negative width is
	// ErrNegativeBatchWidth. Output bytes are identical for every
	// width.
	BatchWidth int
}

// RunSweep expands the matrix and executes it through RunScenarios:
// the planner partitions the expanded cells into units, with
// limit-aware cells that share a warm-up prefix (Scenario.PrefixKey)
// grouped so the group simulates that prefix once and its members fork
// from a snapshot (see warmstart.go), and each unit runs as one task
// through BatchRunner.RunUnit, the same seam Optimize's evaluator and
// the simd daemon use. Output bytes equal those of every cell run
// alone (the sweep tests pin this). Scenario runs are
// constant-memory (no trace series are materialized). It stops early
// on the first unit error or on context cancellation.
func RunSweep(ctx context.Context, m Matrix, cfg SweepConfig) (*SweepOutput, error) {
	m.Normalize()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cells := m.expand()
	specs := make([]Scenario, len(cells))
	for i, c := range cells {
		specs[i] = c.Spec
	}
	metrics, err := RunScenarios(ctx, specs, cfg)
	if err != nil {
		return nil, err
	}
	return AggregateCells(cells, metrics, cfg.IncludeRaw)
}

// EncodeJSON writes the sweep output as indented JSON — the stable
// serialization contract cmd/sweep emits and the golden test pins.
func (o *SweepOutput) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(o)
}

// EncodeCSV writes the per-cell summaries as CSV, one row per
// (cell, metric) pair in matrix order with sorted metric names.
func (o *SweepOutput) EncodeCSV(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString("platform,workload,governor,limit_c,duration_s,replicates,metric,mean,min,max,p50,p95\n")
	for _, s := range o.Summaries {
		for _, name := range s.MetricNames {
			st := s.Metrics[name]
			fmt.Fprintf(&b, "%s,%s,%s,%g,%g,%d,%s,%g,%g,%g,%g,%g\n",
				s.Platform, s.Workload, s.Governor, s.LimitC, s.DurationS,
				s.Replicates, name, st.Mean, st.Min, st.Max, st.P50, st.P95)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
