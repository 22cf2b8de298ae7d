package platform

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/detrand"
	"repro/internal/thermal"
)

// minimalSpecJSON is the smallest useful platform: one die node per
// domain plus a board to ambient, leaning on every spec-layer default
// (ambient, sensor period, transition latency, leakage Q, rail and
// node names). It is also the README's "defining your own platform"
// example; keep the two in sync.
const minimalSpecJSON = `{
  "name": "minimal",
  "thermal_limit_c": 55,
  "nodes": [
    {"name": "little", "capacitance_j_per_k": 1.0},
    {"name": "big", "capacitance_j_per_k": 1.5},
    {"name": "gpu", "capacitance_j_per_k": 1.5},
    {"name": "board", "capacitance_j_per_k": 6, "g_ambient_w_per_k": 0.08}
  ],
  "couplings": [
    {"a": "little", "b": "board", "g_w_per_k": 0.5},
    {"a": "big", "b": "board", "g_w_per_k": 0.5},
    {"a": "gpu", "b": "board", "g_w_per_k": 0.5}
  ],
  "domains": [
    {"id": "little", "cores": 4, "ceff_f": 1.5e-10, "idle_w": 0.03, "leak_k": 1e-4,
     "opps": [{"freq_hz": 400000000, "voltage_v": 0.85}, {"freq_hz": 1200000000, "voltage_v": 1.05}]},
    {"id": "big", "cores": 4, "ceff_f": 6e-10, "idle_w": 0.05, "leak_k": 3e-4,
     "opps": [{"freq_hz": 400000000, "voltage_v": 0.9}, {"freq_hz": 1800000000, "voltage_v": 1.2}]},
    {"id": "gpu", "cores": 1, "ceff_f": 2e-9, "idle_w": 0.04, "leak_k": 2e-4,
     "opps": [{"freq_hz": 200000000, "voltage_v": 0.85}, {"freq_hz": 600000000, "voltage_v": 1.05}]}
  ],
  "sensor": {"node": "big"}
}`

func TestParseSpecFileMinimalDefaults(t *testing.T) {
	f, err := ParseSpecFile([]byte(minimalSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if f.AmbientC != DefaultAmbientC {
		t.Errorf("ambient defaulted to %v, want %v", f.AmbientC, DefaultAmbientC)
	}
	if f.Sensor.PeriodS != DefaultSensorPeriodS {
		t.Errorf("sensor period defaulted to %v, want %v", f.Sensor.PeriodS, DefaultSensorPeriodS)
	}
	for _, d := range f.Domains {
		if d.TransitionLatencyS != DefaultTransitionLatencyS {
			t.Errorf("domain %s latency defaulted to %v, want %v", d.ID, d.TransitionLatencyS, DefaultTransitionLatencyS)
		}
		if d.LeakQ != DefaultLeakageQ {
			t.Errorf("domain %s leak_q defaulted to %v, want %v", d.ID, d.LeakQ, DefaultLeakageQ)
		}
		if d.Rail != d.ID || d.Node != d.ID {
			t.Errorf("domain %s rail/node defaulted to %q/%q, want namesakes", d.ID, d.Rail, d.Node)
		}
	}
	p, err := f.Compile(7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "minimal" {
		t.Errorf("compiled platform name = %q", p.Name())
	}
	if got := p.Cores(DomBig); got != 4 {
		t.Errorf("big cores = %d, want 4", got)
	}
	if got := p.Spec().Seed; got != 7 {
		t.Errorf("seed = %d, want 7", got)
	}
}

func TestSpecFileRoundTripStable(t *testing.T) {
	f, err := ParseSpecFile([]byte(minimalSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.JSON()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ParseSpecFile(j)
	if err != nil {
		t.Fatalf("re-decode rejected: %v\n%s", err, j)
	}
	if !reflect.DeepEqual(f, f2) {
		t.Fatalf("spec round trip drifted:\nfirst:  %+v\nsecond: %+v", f, f2)
	}
	j2, err := f2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j, j2) {
		t.Fatalf("spec encode is not byte-stable:\n%s\nvs\n%s", j, j2)
	}
}

// mutateSpec applies edit to a freshly parsed minimal spec and reports
// whether Validate rejects the result.
func rejected(t *testing.T, edit func(f *SpecFile)) bool {
	t.Helper()
	f, err := ParseSpecFile([]byte(minimalSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	edit(&f)
	return f.Validate() != nil
}

func TestSpecFileValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		edit func(f *SpecFile)
	}{
		{"empty name", func(f *SpecFile) { f.Name = "" }},
		{"name with comma", func(f *SpecFile) { f.Name = "a,b" }},
		{"no nodes", func(f *SpecFile) { f.Nodes = nil }},
		{"NaN capacitance", func(f *SpecFile) { f.Nodes[0].CapacitanceJPerK = math.NaN() }},
		{"Inf conductance", func(f *SpecFile) { f.Couplings[0].GWPerK = math.Inf(1) }},
		{"negative conductance", func(f *SpecFile) { f.Couplings[0].GWPerK = -1 }},
		{"self coupling", func(f *SpecFile) { f.Couplings[0].B = f.Couplings[0].A }},
		{"duplicate coupling", func(f *SpecFile) { f.Couplings = append(f.Couplings, f.Couplings[0]) }},
		{"asymmetric coupling", func(f *SpecFile) {
			c := f.Couplings[0]
			f.Couplings = append(f.Couplings, CouplingJSON{A: c.B, B: c.A, GWPerK: c.GWPerK * 2})
		}},
		{"coupling to unknown node", func(f *SpecFile) { f.Couplings[0].B = "ghost" }},
		{"no ambient path", func(f *SpecFile) { f.Nodes[3].GAmbientWPerK = 0 }},
		{"unknown domain id", func(f *SpecFile) { f.Domains[0].ID = "prime" }},
		{"duplicate domain", func(f *SpecFile) { f.Domains[0].ID = "big" }},
		{"missing domain", func(f *SpecFile) { f.Domains = f.Domains[:2] }},
		{"zero cores", func(f *SpecFile) { f.Domains[0].Cores = 0 }},
		{"empty OPP table", func(f *SpecFile) { f.Domains[0].OPPs = nil }},
		{"zero OPP frequency", func(f *SpecFile) { f.Domains[0].OPPs[0].FreqHz = 0 }},
		{"duplicate OPP frequency", func(f *SpecFile) { f.Domains[0].OPPs[1].FreqHz = f.Domains[0].OPPs[0].FreqHz }},
		{"NaN voltage", func(f *SpecFile) { f.Domains[0].OPPs[0].VoltageV = math.NaN() }},
		{"negative voltage", func(f *SpecFile) { f.Domains[0].OPPs[0].VoltageV = -0.5 }},
		{"voltage decreasing with frequency", func(f *SpecFile) { f.Domains[0].OPPs[1].VoltageV = 0.1 }},
		{"zero ceff", func(f *SpecFile) { f.Domains[0].CeffF = 0 }},
		{"negative leak K", func(f *SpecFile) { f.Domains[0].LeakK = -1 }},
		{"unknown rail", func(f *SpecFile) { f.Domains[0].Rail = "nuclear" }},
		{"domain heats unknown node", func(f *SpecFile) { f.Domains[0].Node = "ghost" }},
		{"unknown sensor node", func(f *SpecFile) { f.Sensor.Node = "ghost" }},
		{"negative sensor noise", func(f *SpecFile) { f.Sensor.NoiseK = -1 }},
		{"limit below ambient", func(f *SpecFile) { f.ThermalLimitC = f.AmbientC - 1 }},
		{"NaN limit", func(f *SpecFile) { f.ThermalLimitC = math.NaN() }},
		{"negative mem idle", func(f *SpecFile) { f.Mem.IdleW = -0.1 }},
		{"too many nodes", func(f *SpecFile) {
			for i := 0; i <= MaxSpecNodes; i++ {
				f.Nodes = append(f.Nodes, NodeJSON{Name: strings.Repeat("n", i+1), CapacitanceJPerK: 1})
			}
		}},
		{"too many OPPs", func(f *SpecFile) {
			for i := 0; i <= MaxSpecOPPs; i++ {
				f.Domains[0].OPPs = append(f.Domains[0].OPPs, OPPJSON{FreqHz: 2000000000 + uint64(i), VoltageV: 1.3})
			}
		}},
	}
	for _, tc := range cases {
		if !rejected(t, tc.edit) {
			t.Errorf("%s: Validate accepted a spec it must reject", tc.name)
		}
	}
}

func TestParseSpecFileStrictDecode(t *testing.T) {
	for _, bad := range []string{
		`{"name": "x", "unknown_knob": 3}`,
		`{"name":`,
		`null`,
		minimalSpecJSON + `{"trailing": true}`,
	} {
		if _, err := ParseSpecFile([]byte(bad)); err == nil {
			t.Errorf("ParseSpecFile accepted malformed input %.40q", bad)
		}
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "minimal.json")
	if err := os.WriteFile(path, []byte(minimalSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "minimal" {
		t.Errorf("loaded name = %q", f.Name)
	}
	if _, err := LoadSpecFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecFile(bad); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestCompiledPlatformSurfaces(t *testing.T) {
	f, err := ParseSpecFile([]byte(minimalSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []string{"little", "big", "gpu", "board"}
	if got := p.NodeNames(); !reflect.DeepEqual(got, wantNodes) {
		t.Errorf("NodeNames() = %v, want %v", got, wantNodes)
	}
	if got := p.OnlineCores(DomBig); got != 4 {
		t.Errorf("OnlineCores(big) = %d, want 4", got)
	}
	p.SetOnlineCores(DomBig, 99)
	if got := p.OnlineCores(DomBig); got != 4 {
		t.Errorf("hot-plug above core count not clamped: %d", got)
	}
	p.SetOnlineCores(DomBig, 0)
	if got := p.OnlineCores(DomBig); got != 1 {
		t.Errorf("hot-plug below one core not clamped: %d", got)
	}
	if err := p.Prewarm(50); err != nil {
		t.Fatal(err)
	}
	id, ok := p.NodeByName("board")
	if !ok {
		t.Fatal("board node missing")
	}
	k, err := p.Net.Temperature(id)
	if err != nil || k != thermal.ToKelvin(50) {
		t.Errorf("prewarmed board = %v K (%v), want %v", k, err, thermal.ToKelvin(50))
	}
}

func TestBuiltinSpecs(t *testing.T) {
	names := BuiltinNames()
	if !reflect.DeepEqual(names, []string{"nexus6p", "odroid-xu3"}) {
		t.Fatalf("builtin names = %v", names)
	}
	for _, name := range names {
		f, ok := BuiltinSpec(name)
		if !ok {
			t.Fatalf("BuiltinSpec(%q) missing", name)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("embedded %s spec invalid: %v", name, err)
		}
		// The embedded copy is isolated: mutating it — including through
		// its slices — must not leak into subsequent loads.
		f.ThermalLimitC = -1000
		f.Nodes[0].CapacitanceJPerK = -1
		f.Domains[0].OPPs[0].FreqHz = 1
		g, _ := BuiltinSpec(name)
		if g.ThermalLimitC == -1000 || g.Nodes[0].CapacitanceJPerK == -1 || g.Domains[0].OPPs[0].FreqHz == 1 {
			t.Errorf("BuiltinSpec(%q) returns a shared mutable spec", name)
		}
	}
}

// seededSources walks v's object graph, unexported fields included,
// and counts the detrand sources it reaches and how many of them have
// seeded their math/rand source.
func seededSources(v reflect.Value, seen map[uintptr]bool) (sources, seeded int) {
	add := func(s, d int) { sources, seeded = sources+s, seeded+d }
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0, 0
		}
		seen[v.Pointer()] = true
		add(seededSources(v.Elem(), seen))
	case reflect.Interface:
		if !v.IsNil() {
			add(seededSources(v.Elem(), seen))
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(detrand.Source{}) {
			if !v.FieldByName("src").IsNil() {
				return 1, 1
			}
			return 1, 0
		}
		for i := 0; i < v.NumField(); i++ {
			add(seededSources(v.Field(i), seen))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			add(seededSources(v.Index(i), seen))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			add(seededSources(it.Value(), seen))
		}
	}
	return sources, seeded
}

// TestCompiledPlatformHoldsNoSeededSource pins deferred seeding where
// it pays: compiling a platform (what every validation probe does)
// seeds no RNG, and the sensor's first noisy read seeds its source.
func TestCompiledPlatformHoldsNoSeededSource(t *testing.T) {
	spec, ok := BuiltinSpec("odroid-xu3")
	if !ok {
		t.Fatal("odroid-xu3 spec missing")
	}
	p, err := spec.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	if sources, seeded := seededSources(reflect.ValueOf(p), map[uintptr]bool{}); sources == 0 || seeded != 0 {
		t.Fatalf("compiled platform: %d sources, %d seeded; want some, none seeded", sources, seeded)
	}
	if _, err := p.Sensor.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, seeded := seededSources(reflect.ValueOf(p), map[uintptr]bool{}); seeded != 1 {
		t.Fatalf("after a noisy sensor read: %d sources seeded, want 1", seeded)
	}
}
