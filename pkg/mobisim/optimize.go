package mobisim

// Declarative design-space exploration (mobisim.Optimize).
//
// An OptimizeSpec names a base scenario, an objective over the
// engine's metrics, optional metric constraints, and a set of
// parameter mutations spanning scenario knobs (thermal limit,
// governors) and platform-spec content (thermal and power
// parameters). Optimize quantizes each numeric mutation onto a grid,
// runs a seeded hill-climb over the resulting space (search.go), and
// evaluates every generation of candidates as lockstep batches on
// pooled engines — the same executors, content keys and byte-exactness
// contracts the sweep paths use.
//
// The spec follows the Scenario/Matrix JSON discipline: strict
// decoding (unknown fields rejected), idempotent Normalize, a Validate
// at least as strict as the search (any accepted spec starts), and a
// stable indented JSON rendering.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Objective goals.
const (
	// GoalMaximize seeks the largest objective metric (the default).
	GoalMaximize = "maximize"
	// GoalMinimize seeks the smallest objective metric.
	GoalMinimize = "minimize"
)

// Mutable scenario-level parameter names (Mutation.Param). Platform
// content parameters use the "platform." dotted paths documented on
// Mutation.
const (
	// ParamLimitC mutates the appaware thermal limit (Scenario.LimitC).
	ParamLimitC = "limit_c"
	// ParamGovernor mutates the thermal-management arm.
	ParamGovernor = "governor"
	// ParamCPUGovernor mutates the CPUfreq governor family.
	ParamCPUGovernor = "cpu_governor"
)

// knownMetricNames lists the Engine.Metrics keys an objective or
// constraint may reference. Not every scenario produces every metric;
// a candidate whose run lacks a referenced metric is infeasible.
var knownMetricNames = []string{
	MetricPeakC, MetricAvgPowerW, MetricMigrations, MetricGT1FPS,
	MetricGT2FPS, MetricMedianFPS, MetricScore, MetricBMLIterations,
}

// KnownMetrics returns the metric names an optimization objective or
// constraint may reference.
func KnownMetrics() []string { return append([]string(nil), knownMetricNames...) }

// KnownCPUGovernors returns the accepted CPUfreq governor family names.
func KnownCPUGovernors() []string {
	return []string{CPUGovStock, CPUGovInteractive, CPUGovOndemand,
		CPUGovPerformance, CPUGovPowersave, CPUGovConservative}
}

func knownMetric(name string) bool {
	for _, m := range knownMetricNames {
		if name == m {
			return true
		}
	}
	return false
}

// Objective declares what the search optimizes: one metric, pushed in
// one direction.
type Objective struct {
	// Metric is the Engine.Metrics key to optimize (see KnownMetrics).
	Metric string `json:"metric"`
	// Goal is GoalMaximize or GoalMinimize; empty defaults to maximize.
	Goal string `json:"goal,omitempty"`
}

// Constraint bounds one metric: a candidate is feasible only when
// every constraint holds on its aggregated metrics. At least one bound
// must be set.
type Constraint struct {
	// Metric is the Engine.Metrics key the bound applies to.
	Metric string `json:"metric"`
	// Min, when set, requires metric >= *Min.
	Min *float64 `json:"min,omitempty"`
	// Max, when set, requires metric <= *Max.
	Max *float64 `json:"max,omitempty"`
}

// Mutation declares one searchable parameter. Exactly one shape is
// valid per mutation:
//
//   - numeric: Min, Max and Step set (Values empty). The parameter is
//     quantized to the grid Min, Min+Step, ... ≤ Max; candidates only
//     ever take grid values, so candidate identity is exact.
//   - categorical: Values set (numeric fields zero). The parameter
//     takes one of the listed choices.
//
// Numeric parameter names: ParamLimitC, plus the platform content
// paths "platform.ambient_c", "platform.thermal_limit_c",
// "platform.domain.<id>.{ceff_f,idle_w,leak_k,leak_q}" and
// "platform.node.<name>.{capacitance_j_per_k,g_ambient_w_per_k}".
// Categorical parameter names: ParamGovernor (values from
// KnownGovernors) and ParamCPUGovernor (values from
// KnownCPUGovernors).
//
// When any "platform." parameter is mutated, every candidate embeds a
// mutated copy of the base scenario's resolved platform spec, renamed
// "<base>@dse-<indices>" so distinct platform contents never share a
// platform label (content keys and sweep rows stay unambiguous).
type Mutation struct {
	Param  string   `json:"param"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
	Step   float64  `json:"step,omitempty"`
	Values []string `json:"values,omitempty"`
}

// numeric reports whether the mutation declares the numeric shape.
func (m Mutation) numeric() bool { return len(m.Values) == 0 }

// points returns the axis cardinality: the number of Step-spaced grid
// values in [Min, Max] for a numeric mutation (the epsilon absorbs
// float division round-off, so [55,75] step 5 keeps its endpoint), or
// the number of choices for a categorical one.
func (m Mutation) points() int {
	if !m.numeric() {
		return len(m.Values)
	}
	return 1 + int(math.Floor((m.Max-m.Min)/m.Step+1e-9))
}

// value materializes numeric grid index i.
func (m Mutation) value(i int) float64 { return m.Min + float64(i)*m.Step }

// index returns the numeric grid index nearest to v, clamped into the
// grid.
func (m Mutation) index(v float64) int {
	return min(max(int(math.Round((v-m.Min)/m.Step)), 0), m.points()-1)
}

// Search-knob bounds Validate enforces.
const (
	// MaxMutations bounds the searchable parameter count.
	MaxMutations = 32
	// MaxMutationPoints bounds one numeric mutation's grid cardinality,
	// so a tiny step over a huge range cannot silently turn the search
	// space (and its dedup store) into a memory bomb.
	MaxMutationPoints = 1_000_000
	// MaxReplicates bounds the replicate runs per candidate.
	MaxReplicates = 64
	// MaxNeighbors bounds the candidates drawn per generation.
	MaxNeighbors = 256
	// MaxSearchGenerations bounds the generation budget.
	MaxSearchGenerations = 4096
)

// OptimizeSpec is a declarative, JSON-serializable design-space
// search: a base scenario, an objective, constraints, and the
// parameter mutations spanning the space. The zero value is not
// runnable; fill Scenario, Objective and Mutations, then Normalize and
// Validate (ParseOptimize and LoadOptimize do both). Normalize and
// Validate are the search's only defaults and checks: Optimize climbs
// the mutations exactly as the spec declares them.
type OptimizeSpec struct {
	// Name optionally labels the search in logs and output files.
	Name string `json:"name,omitempty"`
	// Scenario is the base (start) scenario mutations perturb. It is
	// normalized first, so candidates inherit its materialized defaults
	// (governor, prewarm) rather than re-deriving them per candidate.
	Scenario Scenario `json:"scenario"`
	// Objective is the optimization target.
	Objective Objective `json:"objective"`
	// Constraints gate feasibility; empty means every evaluated
	// candidate is feasible.
	Constraints []Constraint `json:"constraints,omitempty"`
	// Mutations are the searchable parameters (at least one).
	Mutations []Mutation `json:"mutations"`
	// Replicates runs each candidate this many times with derived seeds
	// and aggregates metrics by mean; 0 defaults to 1. Replicate 0 runs
	// the base scenario seed itself, so single-replicate searches share
	// cell keys (and result caches) with plain scenario runs.
	Replicates int `json:"replicates,omitempty"`
	// Neighbors is the candidate count per generation (0 = 8).
	Neighbors int `json:"neighbors,omitempty"`
	// MaxGenerations bounds the search length (0 = 32).
	MaxGenerations int `json:"max_generations,omitempty"`
	// Patience stops after this many generations without improvement
	// (0 = 4).
	Patience int `json:"patience,omitempty"`
	// MinDelta is the strict improvement threshold for moving the
	// incumbent.
	MinDelta float64 `json:"min_delta,omitempty"`
	// Seed drives neighbor generation; identical seeds reproduce the
	// search trajectory bitwise.
	Seed int64 `json:"seed"`
}

// Normalize fills defaults in place: the base scenario's own defaults
// first (candidates are derived from the normalized base), then the
// objective goal and the search knobs. It is idempotent.
func (o *OptimizeSpec) Normalize() {
	o.Scenario.Normalize()
	if o.Objective.Goal == "" {
		o.Objective.Goal = GoalMaximize
	}
	if o.Replicates == 0 {
		o.Replicates = 1
	}
	if o.Neighbors == 0 {
		o.Neighbors = 8
	}
	if o.MaxGenerations == 0 {
		o.MaxGenerations = 32
	}
	if o.Patience == 0 {
		o.Patience = 4
	}
}

// Validate checks the spec without simulating anything. Like
// Scenario.Validate it is deliberately at least as strict as the
// search: any accepted spec builds its search space, and every
// single-axis extreme of that space yields a scenario the engine
// accepts, so parameter-range mistakes surface at the API boundary
// instead of as a search full of invalid candidates. (Cross-axis
// combinations are probed lazily: a candidate mixing mutations into an
// invalid scenario is recorded as invalid and skipped, not a hard
// error.)
func (o OptimizeSpec) Validate() error {
	if err := o.Scenario.Validate(); err != nil {
		return fmt.Errorf("mobisim: optimize base scenario: %w", err)
	}
	if !knownMetric(o.Objective.Metric) {
		return fmt.Errorf("mobisim: unknown objective metric %q (want one of %s)",
			o.Objective.Metric, strings.Join(knownMetricNames, ", "))
	}
	switch o.Objective.Goal {
	case GoalMaximize, GoalMinimize:
	default:
		return fmt.Errorf("mobisim: unknown objective goal %q (want %s or %s)", o.Objective.Goal, GoalMaximize, GoalMinimize)
	}
	for i, c := range o.Constraints {
		if !knownMetric(c.Metric) {
			return fmt.Errorf("mobisim: constraint %d: unknown metric %q (want one of %s)",
				i, c.Metric, strings.Join(knownMetricNames, ", "))
		}
		if c.Min == nil && c.Max == nil {
			return fmt.Errorf("mobisim: constraint %d (%s): needs a min or max bound", i, c.Metric)
		}
		if c.Min != nil && (math.IsNaN(*c.Min) || math.IsInf(*c.Min, 0)) {
			return fmt.Errorf("mobisim: constraint %d (%s): min must be finite, got %v", i, c.Metric, *c.Min)
		}
		if c.Max != nil && (math.IsNaN(*c.Max) || math.IsInf(*c.Max, 0)) {
			return fmt.Errorf("mobisim: constraint %d (%s): max must be finite, got %v", i, c.Metric, *c.Max)
		}
		if c.Min != nil && c.Max != nil && *c.Min > *c.Max {
			return fmt.Errorf("mobisim: constraint %d (%s): min %v exceeds max %v (contradictory bounds)", i, c.Metric, *c.Min, *c.Max)
		}
	}
	if len(o.Mutations) == 0 {
		return fmt.Errorf("mobisim: optimize spec needs at least one mutation")
	}
	if len(o.Mutations) > MaxMutations {
		return fmt.Errorf("mobisim: %d mutations exceed the %d bound", len(o.Mutations), MaxMutations)
	}
	seen := make(map[string]bool, len(o.Mutations))
	for i, m := range o.Mutations {
		if m.Param == "" {
			return fmt.Errorf("mobisim: mutation %d needs a param name", i)
		}
		if seen[m.Param] {
			return fmt.Errorf("mobisim: duplicate mutation param %q", m.Param)
		}
		seen[m.Param] = true
		if err := m.validateShape(); err != nil {
			return err
		}
	}
	if o.Replicates < 1 || o.Replicates > MaxReplicates {
		return fmt.Errorf("mobisim: replicates %d out of range [1, %d]", o.Replicates, MaxReplicates)
	}
	if o.Neighbors < 1 || o.Neighbors > MaxNeighbors {
		return fmt.Errorf("mobisim: neighbors %d out of range [1, %d]", o.Neighbors, MaxNeighbors)
	}
	if o.MaxGenerations < 1 || o.MaxGenerations > MaxSearchGenerations {
		return fmt.Errorf("mobisim: max generations %d out of range [1, %d]", o.MaxGenerations, MaxSearchGenerations)
	}
	if o.Patience < 1 || o.Patience > MaxSearchGenerations {
		return fmt.Errorf("mobisim: patience %d out of range [1, %d]", o.Patience, MaxSearchGenerations)
	}
	if math.IsNaN(o.MinDelta) || math.IsInf(o.MinDelta, 0) || o.MinDelta < 0 {
		return fmt.Errorf("mobisim: min delta must be finite and >= 0, got %v", o.MinDelta)
	}

	plan, err := buildSearchPlan(o)
	if err != nil {
		return err
	}
	return plan.probeExtremes()
}

// validateShape checks the mutation's numeric-or-categorical shape,
// its numeric range and grid size, and that its parameter and values
// are legal and its values distinct.
func (m Mutation) validateShape() error {
	if m.numeric() {
		for _, f := range []struct {
			name  string
			value float64
		}{{"min", m.Min}, {"max", m.Max}, {"step", m.Step}} {
			if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
				return fmt.Errorf("mobisim: mutation %q: %s must be finite, got %v", m.Param, f.name, f.value)
			}
		}
		if m.Step <= 0 {
			return fmt.Errorf("mobisim: mutation %q: step must be > 0, got %v", m.Param, m.Step)
		}
		if m.Min > m.Max {
			return fmt.Errorf("mobisim: mutation %q: min %v exceeds max %v", m.Param, m.Min, m.Max)
		}
		if n := (m.Max - m.Min) / m.Step; n > MaxMutationPoints {
			return fmt.Errorf("mobisim: mutation %q spans %.0f grid points, exceeding the %d bound", m.Param, n, MaxMutationPoints)
		}
		if !numericParam(m.Param) {
			if catParamValues(m.Param) != nil {
				return fmt.Errorf("mobisim: mutation %q is categorical; declare values, not a numeric range", m.Param)
			}
			return fmt.Errorf("mobisim: unknown numeric mutation param %q", m.Param)
		}
		return nil
	}
	if m.Min != 0 || m.Max != 0 || m.Step != 0 {
		return fmt.Errorf("mobisim: mutation %q mixes categorical values with a numeric range", m.Param)
	}
	legal := catParamValues(m.Param)
	if legal == nil {
		if numericParam(m.Param) {
			return fmt.Errorf("mobisim: mutation %q is numeric; declare min/max/step, not values", m.Param)
		}
		return fmt.Errorf("mobisim: unknown categorical mutation param %q", m.Param)
	}
	for i, v := range m.Values {
		if !slices.Contains(legal, v) {
			return fmt.Errorf("mobisim: mutation %q: unknown value %q (want one of %s)", m.Param, v, strings.Join(legal, ", "))
		}
		if slices.Contains(m.Values[:i], v) {
			return fmt.Errorf("mobisim: mutation %q repeats value %q", m.Param, v)
		}
	}
	return nil
}

// ParseOptimize decodes, normalizes and validates a JSON optimize
// spec. Unknown fields are rejected so typos fail loudly instead of
// silently searching the wrong space.
func ParseOptimize(data []byte) (OptimizeSpec, error) {
	var o OptimizeSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return OptimizeSpec{}, fmt.Errorf("mobisim: decode optimize spec: %w", err)
	}
	if dec.More() {
		return OptimizeSpec{}, fmt.Errorf("mobisim: trailing data after optimize spec document")
	}
	o.Normalize()
	if err := o.Validate(); err != nil {
		return OptimizeSpec{}, err
	}
	return o, nil
}

// LoadOptimize reads and parses an optimize spec file.
func LoadOptimize(path string) (OptimizeSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return OptimizeSpec{}, fmt.Errorf("mobisim: %w", err)
	}
	o, err := ParseOptimize(data)
	if err != nil {
		return OptimizeSpec{}, fmt.Errorf("mobisim: %s: %w", path, err)
	}
	return o, nil
}

// JSON renders the spec as indented JSON with a trailing newline.
// Encoding a parsed spec and re-parsing it is stable.
func (o OptimizeSpec) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("mobisim: encode optimize spec: %w", err)
	}
	return append(out, '\n'), nil
}

// Parameter registry: the dotted paths candidates can mutate.

// numericParam reports whether name is a known numeric parameter.
// Resolvability against a concrete spec (the named domain or node
// existing) is checked by the search plan; here only the path grammar
// matters.
func numericParam(name string) bool {
	if name == ParamLimitC {
		return true
	}
	_, _, err := splitPlatformParam(name)
	return err == nil
}

// platformFields lists every mutable platform field once: the scope
// of its parameter path ("" for platform.<name>, "domain" for
// platform.domain.<id>.<name>, "node" for platform.node.<name>.<name>)
// and the field it addresses, given the index of its domain or node.
var platformFields = []struct {
	scope, name string
	ptr         func(ps *PlatformSpec, i int) *float64
}{
	{"", "ambient_c", func(ps *PlatformSpec, _ int) *float64 { return &ps.AmbientC }},
	{"", "thermal_limit_c", func(ps *PlatformSpec, _ int) *float64 { return &ps.ThermalLimitC }},
	{"domain", "ceff_f", func(ps *PlatformSpec, i int) *float64 { return &ps.Domains[i].CeffF }},
	{"domain", "idle_w", func(ps *PlatformSpec, i int) *float64 { return &ps.Domains[i].IdleW }},
	{"domain", "leak_k", func(ps *PlatformSpec, i int) *float64 { return &ps.Domains[i].LeakK }},
	{"domain", "leak_q", func(ps *PlatformSpec, i int) *float64 { return &ps.Domains[i].LeakQ }},
	{"node", "capacitance_j_per_k", func(ps *PlatformSpec, i int) *float64 { return &ps.Nodes[i].CapacitanceJPerK }},
	{"node", "g_ambient_w_per_k", func(ps *PlatformSpec, i int) *float64 { return &ps.Nodes[i].GAmbientWPerK }},
}

// splitPlatformParam parses a "platform." parameter path into the
// index of its platformFields entry and, for a domain or node field,
// the domain ID or node name it addresses.
func splitPlatformParam(name string) (field int, owner string, err error) {
	rest, ok := strings.CutPrefix(name, "platform.")
	if !ok {
		return 0, "", fmt.Errorf("mobisim: unknown mutation param %q", name)
	}
	scope, path := "", rest
	for _, sc := range []struct{ scope, key string }{{"domain", "id"}, {"node", "name"}} {
		if sub, ok := strings.CutPrefix(rest, sc.scope+"."); ok {
			scope = sc.scope
			if owner, path, ok = strings.Cut(sub, "."); !ok || owner == "" {
				return 0, "", fmt.Errorf("mobisim: mutation param %q: want platform.%s.<%s>.<field>", name, sc.scope, sc.key)
			}
			break
		}
	}
	var names []string
	for i, f := range platformFields {
		if f.scope != scope {
			continue
		}
		if f.name == path {
			return i, owner, nil
		}
		names = append(names, f.name)
	}
	if scope == "" {
		return 0, "", fmt.Errorf("mobisim: unknown platform mutation param %q", name)
	}
	last := len(names) - 1
	return 0, "", fmt.Errorf("mobisim: mutation param %q: unknown %s field %q (want %s or %s)", name, scope, path, strings.Join(names[:last], ", "), names[last])
}

// catParamValues returns the legal value set of a categorical
// parameter, or nil when name is not categorical.
func catParamValues(name string) []string {
	switch name {
	case ParamGovernor:
		return KnownGovernors()
	case ParamCPUGovernor:
		return KnownCPUGovernors()
	}
	return nil
}

// platformFieldPtr resolves a "platform." parameter path to the field
// it addresses inside ps.
func platformFieldPtr(ps *PlatformSpec, name string) (*float64, error) {
	field, owner, err := splitPlatformParam(name)
	if err != nil {
		return nil, err
	}
	f := platformFields[field]
	switch f.scope {
	case "domain":
		for i := range ps.Domains {
			if ps.Domains[i].ID == owner {
				return f.ptr(ps, i), nil
			}
		}
		return nil, fmt.Errorf("mobisim: mutation param %q: platform %q has no domain %q", name, ps.Name, owner)
	case "node":
		for i := range ps.Nodes {
			if ps.Nodes[i].Name == owner {
				return f.ptr(ps, i), nil
			}
		}
		return nil, fmt.Errorf("mobisim: mutation param %q: platform %q has no node %q", name, ps.Name, owner)
	}
	return f.ptr(ps, -1), nil
}

// searchPlan is a validated spec compiled for the search: the
// mutations as the grid's axes and the start point (the base scenario
// projected onto the grid).
type searchPlan struct {
	spec   OptimizeSpec
	base   Scenario
	basePS PlatformSpec
	// muts are the grid's axes: the numeric mutations, then the
	// categorical ones, each in declaration order.
	muts  []Mutation
	start point
	// hasPlatform reports whether any mutation touches platform
	// content; when true every candidate embeds a renamed inline spec.
	hasPlatform bool
}

// buildSearchPlan compiles a validated spec into its search plan.
func buildSearchPlan(o OptimizeSpec) (*searchPlan, error) {
	base := o.Scenario.cloneRefs()
	base.Normalize()
	// Candidates execute in the sweep executors' model-only-BML
	// configuration: cells are content-identical with the equivalent
	// sweep cells, so the simd result cache is shared across tools, and
	// the candidate step path inherits the sweep loop's zero-alloc
	// steady state.
	base.ModelOnlyBML = true
	basePS, err := resolvedPlatformSpec(base)
	if err != nil {
		return nil, fmt.Errorf("mobisim: optimize base scenario: %w", err)
	}
	p := &searchPlan{spec: o, base: base, basePS: basePS}
	for _, numeric := range []bool{true, false} {
		for _, m := range o.Mutations {
			if m.numeric() == numeric {
				p.muts = append(p.muts, m)
				p.hasPlatform = p.hasPlatform || strings.HasPrefix(m.Param, "platform.")
			}
		}
	}

	// Project the base scenario onto the grid: each axis starts at the
	// grid point nearest the base value (clamped into the range), or
	// the first choice when the base value is not listed.
	p.start = make(point, len(p.muts))
	for i, m := range p.muts {
		if !m.numeric() {
			p.start[i] = max(slices.Index(m.Values, p.readCat(m.Param)), 0)
			continue
		}
		v, err := p.readNum(m.Param)
		if err != nil {
			return nil, err
		}
		p.start[i] = m.index(v)
	}
	return p, nil
}

// readNum returns the base scenario's current value of a numeric
// parameter.
func (p *searchPlan) readNum(name string) (float64, error) {
	if name == ParamLimitC {
		return effectiveLimitC(p.base)
	}
	ps := p.basePS
	ptr, err := platformFieldPtr(&ps, name)
	if err != nil {
		return 0, err
	}
	return *ptr, nil
}

// readCat returns the base scenario's current value of a categorical
// parameter.
func (p *searchPlan) readCat(name string) string {
	switch name {
	case ParamGovernor:
		return p.base.Governor
	case ParamCPUGovernor:
		return p.base.CPUGovernor
	}
	return ""
}

// platformName labels a candidate's mutated platform content. Only the
// platform-axis indices participate, so candidates that share platform
// content share the label (and the resolved-platform contribution to
// their cell keys), while distinct contents never collide.
func (p *searchPlan) platformName(pt point) string {
	var b strings.Builder
	b.WriteString(p.basePS.Name)
	b.WriteString("@dse")
	for i, m := range p.muts {
		if strings.HasPrefix(m.Param, "platform.") {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(pt[i]))
		}
	}
	return b.String()
}

// candidate materializes the scenario at a grid point: clone the
// normalized base, apply every axis value, and re-normalize. The
// returned scenario is not yet validated — the evaluator records
// validation failures as invalid candidates.
func (p *searchPlan) candidate(pt point) (Scenario, error) {
	s := p.base.cloneRefs()
	var ps *PlatformSpec
	if p.hasPlatform {
		c := p.basePS.Clone()
		ps = &c
	}
	for i, m := range p.muts {
		if !m.numeric() {
			switch v := m.Values[pt[i]]; m.Param {
			case ParamGovernor:
				s.Governor = v
			case ParamCPUGovernor:
				s.CPUGovernor = v
			default:
				return Scenario{}, fmt.Errorf("mobisim: unknown categorical mutation param %q", m.Param)
			}
			continue
		}
		v := m.value(pt[i])
		if m.Param == ParamLimitC {
			s.LimitC = v
			continue
		}
		if ps == nil {
			return Scenario{}, fmt.Errorf("mobisim: mutation param %q needs a platform spec", m.Param)
		}
		ptr, err := platformFieldPtr(ps, m.Param)
		if err != nil {
			return Scenario{}, err
		}
		*ptr = v
	}
	if ps != nil {
		ps.Name = p.platformName(pt)
		s.PlatformSpec = ps
		s.Platform = ""
	}
	s.Normalize()
	return s, nil
}

// probeExtremes validates the start point and every single-axis
// extreme of the grid (each numeric axis at its first and last index,
// each categorical axis at every value, the others at the start): a
// Validate-accepted spec is guaranteed a legal start and per-axis
// ranges that do not leave the engine's domain.
func (p *searchPlan) probeExtremes() error {
	probe := func(pt point, what string) error {
		s, err := p.candidate(pt)
		if err != nil {
			return fmt.Errorf("mobisim: optimize spec: %s: %w", what, err)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("mobisim: optimize spec: %s yields an invalid scenario: %w", what, err)
		}
		return nil
	}
	if err := probe(p.start, "start point"); err != nil {
		return err
	}
	for i, m := range p.muts {
		n, stride := m.points(), 1
		if m.numeric() {
			stride = max(n-1, 1) // a numeric range is probed at its two ends
		}
		for idx := 0; idx < n; idx += stride {
			pt := slices.Clone(p.start)
			pt[i] = idx
			what := fmt.Sprintf("mutation %q at %v", m.Param, m.value(idx))
			if !m.numeric() {
				what = fmt.Sprintf("mutation %q at %q", m.Param, m.Values[idx])
			}
			if err := probe(pt, what); err != nil {
				return err
			}
		}
	}
	return nil
}

// paramValues renders a point as the parameter assignment it encodes,
// in axis order (numeric mutations first, then categorical).
func (p *searchPlan) paramValues(pt point) []ParamValue {
	out := make([]ParamValue, len(p.muts))
	for i, m := range p.muts {
		if m.numeric() {
			v := m.value(pt[i])
			out[i] = ParamValue{Param: m.Param, Value: &v}
		} else {
			out[i] = ParamValue{Param: m.Param, Choice: m.Values[pt[i]]}
		}
	}
	return out
}
