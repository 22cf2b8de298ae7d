package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/thermal"
)

func minimalSpec() Spec {
	table := dvfs.MustTable(dvfs.OPP{FreqHz: 100e6, VoltageV: 0.9})
	model := power.DomainModel{Name: "m", CeffF: 1e-10, Leakage: power.LeakageParams{K: 1e-5, Q: 1000}}
	return Spec{
		Name:     "mini",
		AmbientC: 25,
		Nodes: []NodeSpec{
			{Name: "soc", CapacitanceJPerK: 1, GAmbientWPerK: 0.5},
		},
		Domains: []DomainSpec{
			{ID: DomLittle, Table: table, Cores: 1, Model: model, Rail: power.RailLittle, NodeName: "soc"},
			{ID: DomBig, Table: table, Cores: 1, Model: model, Rail: power.RailBig, NodeName: "soc"},
			{ID: DomGPU, Table: table, Cores: 1, Model: model, Rail: power.RailGPU, NodeName: "soc"},
		},
		SensorNode:    "soc",
		SensorPeriodS: 0.01,
		ThermalLimitC: 70,
	}
}

func TestNewValidates(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"no nodes", func(s *Spec) { s.Nodes = nil }},
		{"zero sensor period", func(s *Spec) { s.SensorPeriodS = 0 }},
		{"limit below ambient", func(s *Spec) { s.ThermalLimitC = 10 }},
		{"negative mem idle", func(s *Spec) { s.MemIdleW = -1 }},
		{"duplicate node", func(s *Spec) { s.Nodes = append(s.Nodes, s.Nodes[0]) }},
		{"unknown coupling node", func(s *Spec) {
			s.Couplings = []CouplingSpec{{A: "soc", B: "nope", GWPerK: 1}}
		}},
		{"unknown sensor node", func(s *Spec) { s.SensorNode = "nope" }},
		{"missing domain", func(s *Spec) { s.Domains = s.Domains[:2] }},
		{"duplicate domain", func(s *Spec) { s.Domains[1].ID = DomLittle }},
		{"zero cores", func(s *Spec) { s.Domains[0].Cores = 0 }},
		{"unknown heat node", func(s *Spec) { s.Domains[0].NodeName = "nope" }},
		{"invalid domain id", func(s *Spec) { s.Domains[0].ID = DomainID(9) }},
	}
	for _, m := range mutate {
		spec := minimalSpec()
		m.f(&spec)
		if _, err := New(spec); err == nil {
			t.Errorf("%s: expected error", m.name)
		}
	}
	if _, err := New(minimalSpec()); err != nil {
		t.Errorf("minimal spec should build: %v", err)
	}
}

func TestDomainIDHelpers(t *testing.T) {
	if DomLittle.String() != "little" || DomBig.String() != "big" || DomGPU.String() != "gpu" {
		t.Error("domain names wrong")
	}
	if !strings.Contains(DomainID(7).String(), "7") {
		t.Error("unknown domain should include its number")
	}
	if c, ok := DomLittle.Cluster(); !ok || c.String() != "little" {
		t.Error("little cluster mapping wrong")
	}
	if c, ok := DomBig.Cluster(); !ok || c.String() != "big" {
		t.Error("big cluster mapping wrong")
	}
	if _, ok := DomGPU.Cluster(); ok {
		t.Error("gpu must not map to a scheduler cluster")
	}
	if len(DomainIDs()) != 3 {
		t.Error("expected 3 domains")
	}
}

func TestNexus6PWiring(t *testing.T) {
	p := Nexus6P(1)
	if p.Name() != "nexus6p" {
		t.Error("wrong name")
	}
	// The paper's Adreno 430 ladder, exactly.
	want := []uint64{180e6, 305e6, 390e6, 450e6, 510e6, 600e6}
	got := p.Domain(DomGPU).Table().Frequencies()
	if len(got) != len(want) {
		t.Fatalf("GPU OPP count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("GPU OPP %d = %d, want %d", i, got[i], want[i])
		}
	}
	// The 384 and 960 MHz A57 points named in Figure 6 must exist.
	big := p.Domain(DomBig).Table()
	if big.IndexOf(384e6) < 0 || big.IndexOf(960e6) < 0 {
		t.Error("big table must include the paper's 384 and 960 MHz OPPs")
	}
	if p.Cores(DomBig) != 4 || p.Cores(DomLittle) != 4 || p.Cores(DomGPU) != 1 {
		t.Error("core counts wrong")
	}
	if _, ok := p.NodeByName("skin"); !ok {
		t.Error("phone needs a skin node")
	}
	if _, ok := p.NodeByName("pkg"); !ok {
		t.Error("phone needs a package node")
	}
	if p.Rail(DomBig) != power.RailBig || p.Rail(DomGPU) != power.RailGPU {
		t.Error("rail mapping wrong")
	}
}

func TestOdroidXU3Wiring(t *testing.T) {
	p := OdroidXU3(1)
	if p.Name() != "odroid-xu3" {
		t.Error("wrong name")
	}
	if p.Domain(DomBig).Table().Max().FreqHz != 2000e6 {
		t.Error("A15 max should be 2 GHz")
	}
	if p.Domain(DomLittle).Table().Max().FreqHz != 1400e6 {
		t.Error("A7 max should be 1.4 GHz")
	}
	if p.Domain(DomGPU).Table().Max().FreqHz != 600e6 {
		t.Error("Mali max should be 600 MHz")
	}
	// The Odroid senses the big cluster.
	if p.nodes[p.spec.SensorNode] != p.Node(DomBig) {
		t.Error("Odroid sensor should sit on the big-core node")
	}
}

func TestMemPower(t *testing.T) {
	p := Nexus6P(1)
	idle := p.MemPower(0)
	if idle != 0.10 {
		t.Errorf("mem idle = %v, want 0.10", idle)
	}
	if got := p.MemPower(2e9); math.Abs(got-(0.10+0.08)) > 1e-12 {
		t.Errorf("mem at 2 GHz = %v, want 0.18", got)
	}
	if p.MemPower(-5) != idle {
		t.Error("negative activity should clamp to idle")
	}
}

func TestThermalLimitAndAmbient(t *testing.T) {
	p := OdroidXU3(1)
	if got := thermal.ToCelsius(p.ThermalLimitK()); got != 60 {
		t.Errorf("limit = %v°C, want 60", got)
	}
	if got := thermal.ToCelsius(p.AmbientK()); got != 25 {
		t.Errorf("ambient = %v°C, want 25", got)
	}
}

func TestStabilityParamsBridge(t *testing.T) {
	p := OdroidXU3(1)
	sp, err := p.StabilityParams()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("derived params should validate: %v", err)
	}
	if sp.AmbientK != p.AmbientK() {
		t.Error("ambient should carry over")
	}
	// Aggregate leakage at 60°C must match the per-domain sum at nominal
	// voltage within a small factor (domains share Q in the presets).
	tempK := thermal.ToKelvin(60)
	var direct float64
	for _, id := range DomainIDs() {
		v := p.Domain(id).Table().Max().VoltageV
		direct += p.Model(id).Leakage.Power(v, tempK)
	}
	if math.Abs(sp.Leakage(tempK)-direct)/direct > 0.01 {
		t.Errorf("lumped leakage %v vs direct %v", sp.Leakage(tempK), direct)
	}
	// The platform must be thermally stable at its typical power levels.
	an, err := sp.Analyze(3.0)
	if err != nil {
		t.Fatal(err)
	}
	if an.Class.String() != "stable" {
		t.Errorf("Odroid at 3 W should be stable, got %v", an.Class)
	}
}

func TestPresetsAreIndependentInstances(t *testing.T) {
	a, b := Nexus6P(1), Nexus6P(1)
	a.Domain(DomGPU).Request(0, 600e6)
	if b.Domain(DomGPU).CurrentHz() == 600e6 {
		t.Error("presets must not share domain state")
	}
	_ = a.Net.Step(0.01, make([]float64, a.Net.NumNodes()))
	// b's network must be untouched at ambient.
	temps := b.Net.Temperatures()
	for _, k := range temps {
		if k != b.AmbientK() {
			t.Error("presets must not share thermal state")
		}
	}
}

func TestSteadyStateSanity(t *testing.T) {
	// Inject the GPU-heavy power pattern of a game and check the package
	// steady state lands in the plausible phone range (paper Figure 1
	// tops out around 50°C).
	p := Nexus6P(1)
	powers := make([]float64, p.Net.NumNodes())
	powers[p.Node(DomGPU)] = 1.8
	powers[p.Node(DomBig)] = 1.0
	powers[p.Node(DomLittle)] = 0.15
	if memID, ok := p.NodeByName("mem"); ok {
		powers[memID] = 0.2
	}
	// Integrate to equilibrium: 3000 s is about ten times the slowest
	// mode's time constant (total capacitance over ambient conductance).
	for i := 0; i < 30000; i++ {
		if err := p.Net.Step(0.1, powers); err != nil {
			t.Fatal(err)
		}
	}
	temps := p.Net.Temperatures()
	pkgID, _ := p.NodeByName("pkg")
	pkgC := thermal.ToCelsius(temps[pkgID])
	if pkgC < 40 || pkgC > 65 {
		t.Errorf("package steady state = %.1f°C, want in (40, 65) for a 3.15 W game", pkgC)
	}
	// Skin must stay below the package.
	skinID, _ := p.NodeByName("skin")
	if temps[skinID] >= temps[pkgID] {
		t.Error("skin should be cooler than package")
	}
}
