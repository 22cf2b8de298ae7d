package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// This file is the declarative counterpart of Spec: a JSON-serializable
// platform description (SpecFile) with strict decoding, defaulting and
// validation, compiled into exactly the same wired Platform the Go
// constructors produce. The two built-in presets are themselves spec
// files (specs/nexus6p.json, specs/odroid-xu3.json) embedded at build
// time and differentially pinned against the frozen Go constructors in
// internal/platform/frozen, so opening the platform space to user specs
// cannot move a single bit of the existing sweeps.

// Size caps on a decoded spec file. They exist so hostile or corrupted
// JSON fails validation with a clear error instead of building a
// pathological simulation (the RK4 kernel walks an m×m conductance
// matrix, so node count is quadratic in cost).
const (
	// MaxSpecNodes bounds the thermal network size.
	MaxSpecNodes = 64
	// MaxSpecOPPs bounds one domain's OPP ladder.
	MaxSpecOPPs = 64
	// MaxSpecCouplings bounds the coupling list (a complete graph on
	// MaxSpecNodes nodes).
	MaxSpecCouplings = MaxSpecNodes * (MaxSpecNodes - 1) / 2
)

// Spec-layer defaults, filled by SpecFile.Normalize.
const (
	// DefaultAmbientC is the ambient temperature when ambient_c is 0.
	DefaultAmbientC = 25.0
	// DefaultSensorPeriodS is the sensor sampling period when
	// sensor.period_s is 0.
	DefaultSensorPeriodS = 0.01
	// DefaultTransitionLatencyS is the DVFS switch latency when
	// transition_latency_s is 0.
	DefaultTransitionLatencyS = 0.001
	// DefaultLeakageQ is the leakage activation temperature (K) when
	// leak_q is 0; both presets share it.
	DefaultLeakageQ = 1800.0
)

// OPPJSON is one operating performance point of a spec file.
type OPPJSON struct {
	// FreqHz is the clock frequency in Hz.
	FreqHz uint64 `json:"freq_hz"`
	// VoltageV is the supply voltage at that point.
	VoltageV float64 `json:"voltage_v"`
}

// NodeJSON declares one thermal node of a spec file.
type NodeJSON struct {
	// Name identifies the node ("big", "pkg", "skin", ...).
	Name string `json:"name"`
	// CapacitanceJPerK is the node thermal mass (required > 0).
	CapacitanceJPerK float64 `json:"capacitance_j_per_k"`
	// GAmbientWPerK couples the node to ambient (0 for internal nodes).
	GAmbientWPerK float64 `json:"g_ambient_w_per_k,omitempty"`
}

// CouplingJSON declares one node-to-node conductance. Conductances are
// symmetric: listing a pair in either orientation (or twice) is
// rejected, so a spec cannot smuggle in an asymmetric matrix.
type CouplingJSON struct {
	A string `json:"a"`
	B string `json:"b"`
	// GWPerK is the conductance between the nodes (required > 0).
	GWPerK float64 `json:"g_w_per_k"`
}

// DomainJSON declares one frequency domain of a spec file. Exactly the
// three big.LITTLE+GPU domains ("little", "big", "gpu") must appear.
type DomainJSON struct {
	// ID is "little", "big" or "gpu".
	ID string `json:"id"`
	// Cores is the core count (1 for a GPU).
	Cores int `json:"cores"`
	// OPPs is the frequency/voltage ladder, ascending.
	OPPs []OPPJSON `json:"opps"`
	// TransitionLatencyS is the DVFS switch latency. 0 is a sentinel
	// for DefaultTransitionLatencyS; a genuinely instantaneous switch
	// must be written as a negligible nonzero value such as 1e-9.
	TransitionLatencyS float64 `json:"transition_latency_s,omitempty"`
	// CeffF is the effective switched capacitance in farads.
	CeffF float64 `json:"ceff_f"`
	// IdleW is the fixed power of keeping the domain on.
	IdleW float64 `json:"idle_w,omitempty"`
	// LeakK and LeakQ parameterize subthreshold leakage
	// P = K·V·T²·e^(−Q/T); LeakQ 0 defaults to DefaultLeakageQ.
	LeakK float64 `json:"leak_k,omitempty"`
	LeakQ float64 `json:"leak_q,omitempty"`
	// Rail names the power rail ("little", "big", "mem", "gpu");
	// empty defaults to the domain's namesake rail.
	Rail string `json:"rail,omitempty"`
	// Node names the thermal node the domain heats; empty defaults to
	// the node named like the domain.
	Node string `json:"node,omitempty"`
}

// SensorJSON parameterizes the governor-facing temperature sensor.
type SensorJSON struct {
	// Node is the sensed thermal node (required).
	Node string `json:"node"`
	// PeriodS is the sampling period (0 = DefaultSensorPeriodS).
	PeriodS float64 `json:"period_s,omitempty"`
	// NoiseK and ResolutionK model measurement noise and quantization
	// (both may be 0 for an ideal sensor).
	NoiseK      float64 `json:"noise_k,omitempty"`
	ResolutionK float64 `json:"resolution_k,omitempty"`
}

// MemJSON parameterizes the memory rail model.
type MemJSON struct {
	// IdleW is the rail's fixed draw.
	IdleW float64 `json:"idle_w,omitempty"`
	// PerGHz adds power proportional to the achieved compute rate.
	PerGHz float64 `json:"per_ghz,omitempty"`
}

// SpecFile is a complete declarative platform description — the JSON
// counterpart of Spec. Decode one with ParseSpecFile (strict: unknown
// fields are rejected), or fill it in code and call Normalize +
// Validate; Compile wires it into a runnable Platform.
type SpecFile struct {
	// Name labels the platform; it is the name scenario and matrix specs
	// reference.
	Name string `json:"name"`
	// AmbientC is the ambient temperature in Celsius. 0 is a sentinel
	// for DefaultAmbientC (like the other zero-defaulted knobs here);
	// a genuine freezing-point environment must be written as a small
	// nonzero value such as 0.01.
	AmbientC float64 `json:"ambient_c,omitempty"`
	// ThermalLimitC is the soft thermal limit governors regulate to
	// (required, above ambient).
	ThermalLimitC float64 `json:"thermal_limit_c"`
	// Nodes, Couplings and Domains define the thermal/power structure.
	Nodes     []NodeJSON     `json:"nodes"`
	Couplings []CouplingJSON `json:"couplings,omitempty"`
	Domains   []DomainJSON   `json:"domains"`
	// Sensor is the governor-facing temperature sensor.
	Sensor SensorJSON `json:"sensor"`
	// Mem is the memory rail model.
	Mem MemJSON `json:"mem,omitempty"`
}

// domainIDByName maps spec-file domain ids to DomainID slots.
func domainIDByName(id string) (DomainID, bool) {
	switch id {
	case "little":
		return DomLittle, true
	case "big":
		return DomBig, true
	case "gpu":
		return DomGPU, true
	default:
		return 0, false
	}
}

// railByName maps spec-file rail names to power rails.
func railByName(name string) (power.Rail, bool) {
	for _, r := range power.Rails() {
		if r.String() == name {
			return r, true
		}
	}
	return 0, false
}

// Normalize fills defaults in place: ambient temperature, sensor
// period, per-domain transition latency, leakage activation
// temperature, and each domain's rail and thermal node (its namesake).
// It is idempotent, so decode → normalize → encode is stable.
func (f *SpecFile) Normalize() {
	if f.AmbientC == 0 {
		f.AmbientC = DefaultAmbientC
	}
	// Canonicalize an explicit-but-empty couplings array (valid when
	// every node couples to ambient directly) to nil: the JSON field is
	// omitempty, so only the nil form round-trips bit-stably.
	if len(f.Couplings) == 0 {
		f.Couplings = nil
	}
	if f.Sensor.PeriodS == 0 {
		f.Sensor.PeriodS = DefaultSensorPeriodS
	}
	for i := range f.Domains {
		d := &f.Domains[i]
		if d.TransitionLatencyS == 0 {
			d.TransitionLatencyS = DefaultTransitionLatencyS
		}
		if d.LeakQ == 0 {
			d.LeakQ = DefaultLeakageQ
		}
		if d.Rail == "" {
			d.Rail = d.ID
		}
		if d.Node == "" {
			d.Node = d.ID
		}
	}
}

// finiteField is one named float checked by ValidateFields.
type finiteField struct {
	name  string
	value float64
}

// notFinite reports whether v is NaN or infinite.
func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Validate is ValidateFields followed by a probe compile, so it is
// exactly as strict as the engine: any spec it accepts must also be
// accepted by Compile (the fuzz harness pins this contract). The
// compile checks everything structural — duplicate nodes or domains,
// missing domains, unknown node references, OPP ladder shape,
// power-model ranges, thermal limit vs ambient. It builds small structs
// and seeds no RNG (detrand seeds on first draw).
func (f SpecFile) Validate() error {
	if err := f.ValidateFields(); err != nil {
		return err
	}
	_, err := f.Compile(0)
	return err
}

// ValidateFields checks the spec without building anything. It rejects
// what the engine would merely mangle — NaN/Inf parameters (formatting
// a field's name only when it fails), asymmetric or duplicate
// conductance entries, hostile node/OPP counts, a network with no path
// to ambient. A caller that compiles the spec next gets the structural
// errors from Compile, as Validate would.
func (f SpecFile) ValidateFields() error {
	if f.Name == "" {
		return fmt.Errorf("platform: spec needs a name")
	}
	if strings.TrimSpace(f.Name) != f.Name || strings.ContainsAny(f.Name, ",|\n") {
		return fmt.Errorf("platform: spec name %q must be trimmed and free of ',', '|' and newlines (it keys sweep rows)", f.Name)
	}
	if len(f.Nodes) == 0 {
		return fmt.Errorf("platform %q: needs at least one thermal node", f.Name)
	}
	if len(f.Nodes) > MaxSpecNodes {
		return fmt.Errorf("platform %q: %d thermal nodes exceed the %d-node bound", f.Name, len(f.Nodes), MaxSpecNodes)
	}
	if len(f.Couplings) > MaxSpecCouplings {
		return fmt.Errorf("platform %q: %d couplings exceed the %d bound", f.Name, len(f.Couplings), MaxSpecCouplings)
	}

	errNotFinite := func(name string, v float64) error {
		return fmt.Errorf("platform %q: %s must be finite, got %v", f.Name, name, v)
	}
	for _, fd := range [...]finiteField{
		{"ambient_c", f.AmbientC},
		{"thermal_limit_c", f.ThermalLimitC},
		{"sensor.period_s", f.Sensor.PeriodS},
		{"sensor.noise_k", f.Sensor.NoiseK},
		{"sensor.resolution_k", f.Sensor.ResolutionK},
		{"mem.idle_w", f.Mem.IdleW},
		{"mem.per_ghz", f.Mem.PerGHz},
	} {
		if notFinite(fd.value) {
			return errNotFinite(fd.name, fd.value)
		}
	}
	for _, n := range f.Nodes {
		for _, fd := range [...]finiteField{{"capacitance", n.CapacitanceJPerK}, {"ambient conductance", n.GAmbientWPerK}} {
			if notFinite(fd.value) {
				return errNotFinite(fmt.Sprintf("node %q %s", n.Name, fd.name), fd.value)
			}
		}
	}
	for _, c := range f.Couplings {
		if notFinite(c.GWPerK) {
			return errNotFinite(fmt.Sprintf("coupling %s-%s conductance", c.A, c.B), c.GWPerK)
		}
	}
	for _, d := range f.Domains {
		for _, fd := range [...]finiteField{{"transition latency", d.TransitionLatencyS}, {"ceff_f", d.CeffF},
			{"idle_w", d.IdleW}, {"leak_k", d.LeakK}, {"leak_q", d.LeakQ}} {
			if notFinite(fd.value) {
				return errNotFinite(fmt.Sprintf("domain %q %s", d.ID, fd.name), fd.value)
			}
		}
		for _, p := range d.OPPs {
			if notFinite(p.VoltageV) {
				return errNotFinite(fmt.Sprintf("domain %q OPP %d Hz voltage", d.ID, p.FreqHz), p.VoltageV)
			}
		}
	}

	if f.Sensor.NoiseK < 0 || f.Sensor.ResolutionK < 0 {
		return fmt.Errorf("platform %q: sensor noise and resolution must be >= 0", f.Name)
	}
	if f.Sensor.Node == "" {
		return fmt.Errorf("platform %q: sensor needs a node", f.Name)
	}

	// Symmetric conductances only: each unordered node pair may appear
	// once, in either orientation. A pair listed twice — even with equal
	// values, even as (A,B) then (B,A) — is rejected rather than letting
	// the last write win, because the engine stores a symmetric matrix
	// and a spec that looks asymmetric is a spec with a typo.
	seenPairs := make(map[[2]string]bool, len(f.Couplings))
	for _, c := range f.Couplings {
		if c.A == c.B {
			return fmt.Errorf("platform %q: coupling connects node %q to itself", f.Name, c.A)
		}
		if c.GWPerK <= 0 {
			return fmt.Errorf("platform %q: coupling %s-%s conductance must be positive, got %v", f.Name, c.A, c.B, c.GWPerK)
		}
		key := [2]string{c.A, c.B}
		if c.B < c.A {
			key = [2]string{c.B, c.A}
		}
		if seenPairs[key] {
			return fmt.Errorf("platform %q: duplicate coupling between %q and %q (conductances are symmetric; list each pair once)", f.Name, key[0], key[1])
		}
		seenPairs[key] = true
	}

	// The stability analysis (and physics) need at least one path from
	// the network to ambient; Lump rejects it at run time, Validate
	// rejects it here.
	ambientCoupled := false
	for _, n := range f.Nodes {
		if n.GAmbientWPerK > 0 {
			ambientCoupled = true
			break
		}
	}
	if !ambientCoupled {
		return fmt.Errorf("platform %q: no node couples to ambient (heat could never leave the network)", f.Name)
	}

	for _, d := range f.Domains {
		if _, ok := domainIDByName(d.ID); !ok {
			return fmt.Errorf("platform %q: unknown domain id %q (want little, big, gpu)", f.Name, d.ID)
		}
		if len(d.OPPs) == 0 {
			return fmt.Errorf("platform %q: domain %q needs at least one OPP", f.Name, d.ID)
		}
		if len(d.OPPs) > MaxSpecOPPs {
			return fmt.Errorf("platform %q: domain %q has %d OPPs, exceeding the %d bound", f.Name, d.ID, len(d.OPPs), MaxSpecOPPs)
		}
		if _, ok := railByName(d.Rail); !ok {
			return fmt.Errorf("platform %q: domain %q names unknown rail %q", f.Name, d.ID, d.Rail)
		}
	}
	return nil
}

// Spec converts the file to the in-memory platform Spec, building OPP
// tables. seed seeds the platform's sensor noise, exactly like the
// seed argument of the preset constructors.
func (f SpecFile) Spec(seed int64) (Spec, error) {
	spec := Spec{
		Name:              f.Name,
		AmbientC:          f.AmbientC,
		SensorNode:        f.Sensor.Node,
		SensorPeriodS:     f.Sensor.PeriodS,
		SensorNoiseK:      f.Sensor.NoiseK,
		SensorResolutionK: f.Sensor.ResolutionK,
		MemIdleW:          f.Mem.IdleW,
		MemPerGHz:         f.Mem.PerGHz,
		ThermalLimitC:     f.ThermalLimitC,
		Seed:              seed,
	}
	for _, n := range f.Nodes {
		spec.Nodes = append(spec.Nodes, NodeSpec{
			Name:             n.Name,
			CapacitanceJPerK: n.CapacitanceJPerK,
			GAmbientWPerK:    n.GAmbientWPerK,
		})
	}
	for _, c := range f.Couplings {
		spec.Couplings = append(spec.Couplings, CouplingSpec{A: c.A, B: c.B, GWPerK: c.GWPerK})
	}
	for _, d := range f.Domains {
		id, ok := domainIDByName(d.ID)
		if !ok {
			return Spec{}, fmt.Errorf("platform %q: unknown domain id %q (want little, big, gpu)", f.Name, d.ID)
		}
		rail, ok := railByName(d.Rail)
		if !ok {
			return Spec{}, fmt.Errorf("platform %q: domain %q names unknown rail %q", f.Name, d.ID, d.Rail)
		}
		points := make([]dvfs.OPP, len(d.OPPs))
		for i, p := range d.OPPs {
			points[i] = dvfs.OPP{FreqHz: p.FreqHz, VoltageV: p.VoltageV}
		}
		table, err := dvfs.NewTable(points...)
		if err != nil {
			return Spec{}, fmt.Errorf("platform %q: domain %q: %w", f.Name, d.ID, err)
		}
		spec.Domains = append(spec.Domains, DomainSpec{
			ID:                 id,
			Table:              table,
			Cores:              d.Cores,
			TransitionLatencyS: d.TransitionLatencyS,
			Model: power.DomainModel{
				Name:    d.ID,
				CeffF:   d.CeffF,
				IdleW:   d.IdleW,
				Leakage: power.LeakageParams{K: d.LeakK, Q: d.LeakQ},
			},
			Rail:     rail,
			NodeName: d.Node,
		})
	}
	return spec, nil
}

// Compile normalizes the file and wires it into a runnable Platform —
// the spec-file counterpart of New.
func (f SpecFile) Compile(seed int64) (*Platform, error) {
	// Clone before normalizing: the receiver is a value, but its slices
	// share backing arrays with the caller's spec, and Normalize writes
	// through them.
	f = f.Clone()
	f.Normalize()
	spec, err := f.Spec(seed)
	if err != nil {
		return nil, err
	}
	return New(spec)
}

// Clone returns a deep copy: mutating the copy's nodes, couplings or
// domains (including their OPP ladders) cannot affect the original.
// slices.Clone preserves nil-ness, so a clone stays DeepEqual to its
// source even when a spec carries explicit empty arrays.
func (f SpecFile) Clone() SpecFile {
	f.Nodes = slices.Clone(f.Nodes)
	f.Couplings = slices.Clone(f.Couplings)
	f.Domains = slices.Clone(f.Domains)
	for i := range f.Domains {
		f.Domains[i].OPPs = slices.Clone(f.Domains[i].OPPs)
	}
	return f
}

// ParseSpecFile decodes, normalizes and validates a JSON platform spec.
// Unknown fields are rejected so typos fail loudly instead of silently
// simulating the wrong device.
func ParseSpecFile(data []byte) (SpecFile, error) {
	var f SpecFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return SpecFile{}, fmt.Errorf("platform: decode spec: %w", err)
	}
	if dec.More() {
		return SpecFile{}, fmt.Errorf("platform: trailing data after spec document")
	}
	f.Normalize()
	if err := f.Validate(); err != nil {
		return SpecFile{}, err
	}
	return f, nil
}

// LoadSpecFile reads and parses a platform spec file.
func LoadSpecFile(path string) (SpecFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SpecFile{}, fmt.Errorf("platform: %w", err)
	}
	f, err := ParseSpecFile(data)
	if err != nil {
		return SpecFile{}, fmt.Errorf("platform: %s: %w", path, err)
	}
	return f, nil
}

// JSON renders the spec as indented JSON with a trailing newline.
// Encoding a parsed spec and re-parsing it is stable: Normalize is
// idempotent, so decode → normalize → encode converges after one pass.
func (f SpecFile) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("platform: encode spec: %w", err)
	}
	return append(out, '\n'), nil
}
