// Package platform wires the simulator substrates into full mobile
// platforms: the thermal network, DVFS domains, power models, rail
// mapping, and temperature sensors for the two devices the paper
// measures — the Nexus 6P phone (Snapdragon 810) of Section III and the
// Odroid-XU3 board (Exynos 5422) of Section IV.
//
// All numeric parameters are synthetic calibrations: they are chosen so
// the simulated governor dynamics reproduce the paper's qualitative
// behavior (residency shifts, FPS losses, temperature trajectories),
// not the authors' absolute testbed numbers.
package platform

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/stability"
	"repro/internal/thermal"
)

// DomainID identifies a frequency domain within a platform.
type DomainID int

// The three frequency domains of a big.LITTLE + GPU platform.
const (
	DomLittle DomainID = iota
	DomBig
	DomGPU
	numDomains
)

// String names the domain.
func (d DomainID) String() string {
	switch d {
	case DomLittle:
		return "little"
	case DomBig:
		return "big"
	case DomGPU:
		return "gpu"
	default:
		return fmt.Sprintf("domain(%d)", int(d))
	}
}

// DomainIDs lists all domains in order.
func DomainIDs() []DomainID { return []DomainID{DomLittle, DomBig, DomGPU} }

// Cluster maps a CPU domain to its scheduler cluster. The GPU has no
// cluster; ok is false for it.
func (d DomainID) Cluster() (sched.ClusterID, bool) {
	switch d {
	case DomLittle:
		return sched.Little, true
	case DomBig:
		return sched.Big, true
	default:
		return 0, false
	}
}

// DomainSpec declares one frequency domain of a platform.
type DomainSpec struct {
	// ID is the domain slot.
	ID DomainID
	// Table is the OPP ladder.
	Table *dvfs.Table
	// Cores is the number of cores (1 for a GPU).
	Cores int
	// TransitionLatencyS is the DVFS switch latency.
	TransitionLatencyS float64
	// Model is the domain power model.
	Model power.DomainModel
	// Rail is the power rail the domain draws from.
	Rail power.Rail
	// NodeName is the thermal network node heated by this domain.
	NodeName string
}

// NodeSpec declares one thermal node.
type NodeSpec struct {
	// Name identifies the node ("big", "gpu", "pkg", "skin", ...).
	Name string
	// CapacitanceJPerK is the node thermal mass.
	CapacitanceJPerK float64
	// GAmbientWPerK couples the node to ambient (0 for internal nodes).
	GAmbientWPerK float64
}

// CouplingSpec declares one node-to-node conductance.
type CouplingSpec struct {
	// A and B are node names.
	A, B string
	// GWPerK is the conductance between them.
	GWPerK float64
}

// Spec is a complete platform description.
type Spec struct {
	// Name labels the platform ("nexus6p", "odroid-xu3").
	Name string
	// AmbientC is the ambient temperature in Celsius.
	AmbientC float64
	// Nodes, Couplings and Domains define the thermal/power structure.
	Nodes     []NodeSpec
	Couplings []CouplingSpec
	Domains   []DomainSpec
	// SensorNode is the node whose sensor drives thermal governors (the
	// chip package on the Nexus 6P; the hottest big core on the Odroid).
	SensorNode string
	// SensorPeriodS, SensorNoiseK, SensorResolutionK parameterize the
	// governor-facing sensor.
	SensorPeriodS     float64
	SensorNoiseK      float64
	SensorResolutionK float64
	// MemIdleW is the memory rail's fixed draw; MemPerGHz adds power
	// proportional to the achieved compute rate in GHz (a simple
	// activity proxy for DRAM traffic).
	MemIdleW  float64
	MemPerGHz float64
	// ThermalLimitC is the platform's soft thermal limit, the setpoint
	// both the default and the application-aware governors regulate to.
	ThermalLimitC float64
	// Seed seeds sensor noise.
	Seed int64
}

// Platform is a wired, runnable platform instance. Build one from a
// Spec with New, or use the Nexus6P and OdroidXU3 presets.
type Platform struct {
	spec Spec

	// Net is the thermal network.
	Net *thermal.Network
	// Sensor is the governor-facing temperature sensor.
	Sensor *thermal.Sensor

	nodes   map[string]thermal.NodeID
	domains [numDomains]*domainInst
}

// domainInst is one wired domain.
type domainInst struct {
	spec   DomainSpec
	domain *dvfs.Domain
	node   thermal.NodeID
	online int
}

// New validates spec and wires the platform.
func New(spec Spec) (*Platform, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("platform: spec needs a name")
	}
	if len(spec.Nodes) == 0 {
		return nil, fmt.Errorf("platform %q: needs at least one thermal node", spec.Name)
	}
	if spec.SensorPeriodS <= 0 {
		return nil, fmt.Errorf("platform %q: sensor period must be positive", spec.Name)
	}
	if spec.ThermalLimitC <= spec.AmbientC {
		return nil, fmt.Errorf("platform %q: thermal limit %v°C must exceed ambient %v°C",
			spec.Name, spec.ThermalLimitC, spec.AmbientC)
	}
	if spec.MemIdleW < 0 || spec.MemPerGHz < 0 {
		return nil, fmt.Errorf("platform %q: memory rail coefficients must be >= 0", spec.Name)
	}

	p := &Platform{
		spec:  spec,
		Net:   thermal.NewNetwork(thermal.ToKelvin(spec.AmbientC)),
		nodes: make(map[string]thermal.NodeID, len(spec.Nodes)),
	}
	for _, ns := range spec.Nodes {
		if _, dup := p.nodes[ns.Name]; dup {
			return nil, fmt.Errorf("platform %q: duplicate node %q", spec.Name, ns.Name)
		}
		id, err := p.Net.AddNode(thermal.Node{
			Name:        ns.Name,
			Capacitance: ns.CapacitanceJPerK,
			GAmbient:    ns.GAmbientWPerK,
		})
		if err != nil {
			return nil, fmt.Errorf("platform %q: %w", spec.Name, err)
		}
		p.nodes[ns.Name] = id
	}
	for _, c := range spec.Couplings {
		a, ok := p.nodes[c.A]
		if !ok {
			return nil, fmt.Errorf("platform %q: coupling references unknown node %q", spec.Name, c.A)
		}
		b, ok := p.nodes[c.B]
		if !ok {
			return nil, fmt.Errorf("platform %q: coupling references unknown node %q", spec.Name, c.B)
		}
		if err := p.Net.Connect(a, b, c.GWPerK); err != nil {
			return nil, fmt.Errorf("platform %q: %w", spec.Name, err)
		}
	}

	seen := make(map[DomainID]bool)
	for _, ds := range spec.Domains {
		if ds.ID < 0 || ds.ID >= numDomains {
			return nil, fmt.Errorf("platform %q: invalid domain id %d", spec.Name, ds.ID)
		}
		if seen[ds.ID] {
			return nil, fmt.Errorf("platform %q: duplicate domain %s", spec.Name, ds.ID)
		}
		seen[ds.ID] = true
		if ds.Cores < 1 {
			return nil, fmt.Errorf("platform %q: domain %s needs >= 1 core", spec.Name, ds.ID)
		}
		node, ok := p.nodes[ds.NodeName]
		if !ok {
			return nil, fmt.Errorf("platform %q: domain %s heats unknown node %q", spec.Name, ds.ID, ds.NodeName)
		}
		if err := ds.Model.Validate(); err != nil {
			return nil, fmt.Errorf("platform %q: %w", spec.Name, err)
		}
		dom, err := dvfs.NewDomain(ds.ID.String(), ds.Table, ds.TransitionLatencyS)
		if err != nil {
			return nil, fmt.Errorf("platform %q: %w", spec.Name, err)
		}
		ds := ds
		p.domains[ds.ID] = &domainInst{spec: ds, domain: dom, node: node, online: ds.Cores}
	}
	for _, id := range DomainIDs() {
		if p.domains[id] == nil {
			return nil, fmt.Errorf("platform %q: missing domain %s", spec.Name, id)
		}
	}

	sensorNode, ok := p.nodes[spec.SensorNode]
	if !ok {
		return nil, fmt.Errorf("platform %q: sensor node %q not defined", spec.Name, spec.SensorNode)
	}
	sensor, err := thermal.NewSensor(p.Net, thermal.SensorConfig{
		Name:        spec.Name + "-tsens",
		Node:        sensorNode,
		PeriodS:     spec.SensorPeriodS,
		NoiseStdK:   spec.SensorNoiseK,
		ResolutionK: spec.SensorResolutionK,
		Seed:        spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("platform %q: %w", spec.Name, err)
	}
	p.Sensor = sensor
	return p, nil
}

// MustNew is New that panics on error; for the static presets.
func MustNew(spec Spec) *Platform {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the platform name.
func (p *Platform) Name() string { return p.spec.Name }

// Spec returns a copy of the platform's spec.
func (p *Platform) Spec() Spec { return p.spec }

// Domain returns the dvfs domain for id.
func (p *Platform) Domain(id DomainID) *dvfs.Domain { return p.domains[id].domain }

// Model returns the power model for domain id.
func (p *Platform) Model(id DomainID) *power.DomainModel { return &p.domains[id].spec.Model }

// Cores returns the physical core count of domain id.
func (p *Platform) Cores(id DomainID) int { return p.domains[id].spec.Cores }

// OnlineCores returns how many cores of domain id are currently online.
func (p *Platform) OnlineCores(id DomainID) int { return p.domains[id].online }

// SetOnlineCores hot-plugs domain id to n online cores (clamped to
// [1, Cores]); thermal governors use this in extreme conditions — the
// paper's Section I notes that governors "resort to powering the cores
// off" when throttling is not enough. At least one core stays online
// so the cluster can still drain work.
func (p *Platform) SetOnlineCores(id DomainID, n int) {
	d := p.domains[id]
	if n < 1 {
		n = 1
	}
	if n > d.spec.Cores {
		n = d.spec.Cores
	}
	d.online = n
}

// Rail returns the power rail domain id draws from.
func (p *Platform) Rail(id DomainID) power.Rail { return p.domains[id].spec.Rail }

// Node returns the thermal node heated by domain id.
func (p *Platform) Node(id DomainID) thermal.NodeID { return p.domains[id].node }

// NodeByName returns the thermal node with the given name.
func (p *Platform) NodeByName(name string) (thermal.NodeID, bool) {
	id, ok := p.nodes[name]
	return id, ok
}

// NodeNames returns every thermal node name in network (declaration)
// order — what report formatters iterate instead of assuming a preset
// topology, now that platforms are spec-defined.
func (p *Platform) NodeNames() []string {
	out := make([]string, p.Net.NumNodes())
	for i := range out {
		out[i] = p.Net.NodeName(thermal.NodeID(i))
	}
	return out
}

// ThermalLimitK returns the soft thermal limit in Kelvin.
func (p *Platform) ThermalLimitK() float64 { return thermal.ToKelvin(p.spec.ThermalLimitC) }

// AmbientK returns the ambient temperature in Kelvin.
func (p *Platform) AmbientK() float64 { return thermal.ToKelvin(p.spec.AmbientC) }

// MemPower returns the memory rail power for the given total achieved
// compute rate (CPU + GPU cycles per second).
func (p *Platform) MemPower(achievedHz float64) float64 {
	if achievedHz < 0 {
		achievedHz = 0
	}
	return p.spec.MemIdleW + p.spec.MemPerGHz*achievedHz/1e9
}

// Prewarm sets every thermal node to the given Celsius temperature,
// modeling a device that has already been in use — the paper's Odroid
// traces start near 50°C, not at ambient.
func (p *Platform) Prewarm(tempC float64) error {
	k := thermal.ToKelvin(tempC)
	for i := 0; i < p.Net.NumNodes(); i++ {
		if err := p.Net.SetTemperature(thermal.NodeID(i), k); err != nil {
			return err
		}
	}
	return nil
}

// StabilityParams reduces the platform to the lumped model the
// power-temperature stability analysis runs on: total capacitance,
// effective ambient resistance, and the aggregate leakage coefficient
// at each domain's nominal (maximum-OPP) voltage. This is the bridge
// between the full RC simulation and the paper's Section IV-A analysis.
func (p *Platform) StabilityParams() (stability.Params, error) {
	lump, err := p.Net.Lump()
	if err != nil {
		return stability.Params{}, err
	}
	// Aggregate κ_eff = Σ K_i·V_i so κ_eff·T²·e^(−Q/T) matches the sum of
	// per-domain leakage at nominal voltage. Domains share one activation
	// temperature in the presets; use the largest to stay conservative.
	kEff, qMax := 0.0, 0.0
	for _, id := range DomainIDs() {
		m := p.Model(id)
		v := p.Domain(id).Table().Max().VoltageV
		kEff += m.Leakage.K * v
		if m.Leakage.Q > qMax {
			qMax = m.Leakage.Q
		}
	}
	return stability.Params{
		AmbientK:         p.AmbientK(),
		ResistanceKPerW:  lump.ResistanceKPerW,
		CapacitanceJPerK: lump.CapacitanceJPerK,
		LeakScale:        kEff,
		ActivationK:      qMax,
	}, nil
}
