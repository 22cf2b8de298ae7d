package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func singleNode(t *testing.T, ambientK, capJPerK, gAmb float64) (*Network, NodeID) {
	t.Helper()
	n := NewNetwork(ambientK)
	id, err := n.AddNode(Node{Name: "chip", Capacitance: capJPerK, GAmbient: gAmb})
	if err != nil {
		t.Fatal(err)
	}
	return n, id
}

func TestCelsiusRoundTrip(t *testing.T) {
	if got := ToCelsius(ToKelvin(36.6)); !approx(got, 36.6, 1e-12) {
		t.Errorf("round trip = %v", got)
	}
	if ToKelvin(0) != 273.15 {
		t.Errorf("ToKelvin(0) = %v", ToKelvin(0))
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAddNodeValidation(t *testing.T) {
	n := NewNetwork(300)
	if _, err := n.AddNode(Node{Name: "bad", Capacitance: 0}); err == nil {
		t.Error("expected error for zero capacitance")
	}
	if _, err := n.AddNode(Node{Name: "bad", Capacitance: -1}); err == nil {
		t.Error("expected error for negative capacitance")
	}
	if _, err := n.AddNode(Node{Name: "bad", Capacitance: 1, GAmbient: -0.5}); err == nil {
		t.Error("expected error for negative ambient conductance")
	}
}

func TestConnectValidation(t *testing.T) {
	n := NewNetwork(300)
	a, _ := n.AddNode(Node{Name: "a", Capacitance: 1, GAmbient: 1})
	b, _ := n.AddNode(Node{Name: "b", Capacitance: 1})
	if err := n.Connect(a, a, 1); err == nil {
		t.Error("expected error for self connection")
	}
	if err := n.Connect(a, NodeID(99), 1); err == nil {
		t.Error("expected error for out-of-range node")
	}
	if err := n.Connect(a, b, -1); err == nil {
		t.Error("expected error for negative conductance")
	}
	if err := n.Connect(a, b, 0.5); err != nil {
		t.Errorf("valid connect failed: %v", err)
	}
}

func TestNodesStartAtAmbient(t *testing.T) {
	n, id := singleNode(t, 298.15, 10, 0.2)
	got, err := n.Temperature(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != 298.15 {
		t.Errorf("initial temp = %v, want ambient", got)
	}
}

// A single RC node with constant power has the closed-form solution
// T(t) = Ta + P/G * (1 - exp(-G t / C)). RK4 should track it closely.
func TestSingleNodeMatchesAnalytic(t *testing.T) {
	const (
		amb = 300.0
		cap = 20.0
		g   = 0.2
		pw  = 3.0
	)
	n, id := singleNode(t, amb, cap, g)
	dt := 0.01
	powers := []float64{pw}
	for i := 0; i < 10000; i++ { // 100 s
		if err := n.Step(dt, powers); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := 100.0
	want := amb + pw/g*(1-math.Exp(-g*elapsed/cap))
	got, _ := n.Temperature(id)
	if !approx(got, want, 1e-6) {
		t.Errorf("T(100s) = %v, want %v", got, want)
	}
}

func TestStepValidation(t *testing.T) {
	n, _ := singleNode(t, 300, 1, 1)
	if err := n.Step(0.01, nil); err == nil {
		t.Error("expected error for wrong power count")
	}
	if err := n.Step(0, []float64{1}); err == nil {
		t.Error("expected error for zero dt")
	}
	if err := n.Step(-1, []float64{1}); err == nil {
		t.Error("expected error for negative dt")
	}
}

func TestSteadyStateSingleNode(t *testing.T) {
	n, _ := singleNode(t, 300, 10, 0.25)
	ss, err := n.SteadyState([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	want := 300 + 2/0.25
	if !approx(ss[0], want, 1e-9) {
		t.Errorf("steady state = %v, want %v", ss[0], want)
	}
}

func TestSteadyStateTwoNodes(t *testing.T) {
	// Node 0 heated, coupled to node 1 which leaks to ambient.
	n := NewNetwork(300)
	a, _ := n.AddNode(Node{Name: "core", Capacitance: 5})
	b, _ := n.AddNode(Node{Name: "skin", Capacitance: 50, GAmbient: 0.5})
	if err := n.Connect(a, b, 2); err != nil {
		t.Fatal(err)
	}
	ss, err := n.SteadyState([]float64{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	// All 3 W must flow through skin to ambient: T_skin = 300 + 3/0.5.
	if !approx(ss[b], 306, 1e-9) {
		t.Errorf("skin steady = %v, want 306", ss[b])
	}
	// And through the 2 W/K coupling: T_core = T_skin + 3/2.
	if !approx(ss[a], 307.5, 1e-9) {
		t.Errorf("core steady = %v, want 307.5", ss[a])
	}
}

func TestSteadyStateSingularWithoutAmbient(t *testing.T) {
	n := NewNetwork(300)
	if _, err := n.AddNode(Node{Name: "island", Capacitance: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SteadyState([]float64{1}); err == nil {
		t.Error("expected singular-matrix error for node without ambient path")
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	n := NewNetwork(298)
	a, _ := n.AddNode(Node{Name: "big", Capacitance: 3, GAmbient: 0.05})
	b, _ := n.AddNode(Node{Name: "gpu", Capacitance: 2, GAmbient: 0.05})
	c, _ := n.AddNode(Node{Name: "pkg", Capacitance: 30, GAmbient: 0.3})
	for _, pair := range [][2]NodeID{{a, c}, {b, c}, {a, b}} {
		if err := n.Connect(pair[0], pair[1], 1.5); err != nil {
			t.Fatal(err)
		}
	}
	powers := []float64{2, 1.5, 0.2}
	want, err := n.SteadyState(powers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ { // 2000 s at 10 ms
		if err := n.Step(0.01, powers); err != nil {
			t.Fatal(err)
		}
	}
	got := n.Temperatures()
	for i := range got {
		if !approx(got[i], want[i], 1e-3) {
			t.Errorf("node %d transient %v != steady %v", i, got[i], want[i])
		}
	}
}

func TestMaxTemperature(t *testing.T) {
	n := NewNetwork(300)
	a, _ := n.AddNode(Node{Name: "a", Capacitance: 1, GAmbient: 1})
	b, _ := n.AddNode(Node{Name: "b", Capacitance: 1, GAmbient: 1})
	if err := n.SetTemperature(a, 310); err != nil {
		t.Fatal(err)
	}
	if err := n.SetTemperature(b, 320); err != nil {
		t.Fatal(err)
	}
	temp, id, err := n.MaxTemperature()
	if err != nil {
		t.Fatal(err)
	}
	if id != b || temp != 320 {
		t.Errorf("max = %v at %d, want 320 at %d", temp, id, b)
	}
	empty := NewNetwork(300)
	if _, _, err := empty.MaxTemperature(); err == nil {
		t.Error("expected error for empty network")
	}
}

func TestSetTemperatureValidation(t *testing.T) {
	n, id := singleNode(t, 300, 1, 1)
	if err := n.SetTemperature(id, -5); err == nil {
		t.Error("expected error for negative Kelvin")
	}
	if err := n.SetTemperature(id, math.NaN()); err == nil {
		t.Error("expected error for NaN")
	}
	if err := n.SetTemperature(NodeID(7), 300); err == nil {
		t.Error("expected error for bad node id")
	}
}

func TestNodeName(t *testing.T) {
	n, id := singleNode(t, 300, 1, 1)
	if n.NodeName(id) != "chip" {
		t.Errorf("name = %q", n.NodeName(id))
	}
	if n.NodeName(NodeID(42)) != "" {
		t.Error("out-of-range name should be empty")
	}
}

func TestLump(t *testing.T) {
	n := NewNetwork(300)
	_, _ = n.AddNode(Node{Name: "a", Capacitance: 10, GAmbient: 0.1})
	_, _ = n.AddNode(Node{Name: "b", Capacitance: 30, GAmbient: 0.15})
	l, err := n.Lump()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(l.CapacitanceJPerK, 40, 1e-12) {
		t.Errorf("lumped C = %v, want 40", l.CapacitanceJPerK)
	}
	if !approx(l.ResistanceKPerW, 4, 1e-12) {
		t.Errorf("lumped R = %v, want 4", l.ResistanceKPerW)
	}
}

func TestLumpNoAmbient(t *testing.T) {
	n := NewNetwork(300)
	_, _ = n.AddNode(Node{Name: "a", Capacitance: 10})
	if _, err := n.Lump(); err == nil {
		t.Error("expected error when no ambient coupling exists")
	}
}

// Property: steady-state temperature is monotone in injected power.
func TestPropertySteadyStateMonotoneInPower(t *testing.T) {
	f := func(p1, p2 uint8) bool {
		lo, hi := float64(p1)/10, float64(p2)/10
		if lo > hi {
			lo, hi = hi, lo
		}
		n := NewNetwork(300)
		id, err := n.AddNode(Node{Name: "c", Capacitance: 5, GAmbient: 0.3})
		if err != nil {
			return false
		}
		s1, err1 := n.SteadyState([]float64{lo})
		s2, err2 := n.SteadyState([]float64{hi})
		if err1 != nil || err2 != nil {
			return false
		}
		_ = id
		return s2[0] >= s1[0]-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with zero power every node relaxes toward ambient.
func TestPropertyRelaxesToAmbient(t *testing.T) {
	f := func(initOffset uint8) bool {
		n := NewNetwork(300)
		id, err := n.AddNode(Node{Name: "c", Capacitance: 2, GAmbient: 0.5})
		if err != nil {
			return false
		}
		if err := n.SetTemperature(id, 300+float64(initOffset)); err != nil {
			return false
		}
		before, _ := n.Temperature(id)
		for i := 0; i < 1000; i++ {
			if err := n.Step(0.05, []float64{0}); err != nil {
				return false
			}
		}
		after, _ := n.Temperature(id)
		return math.Abs(after-300) <= math.Abs(before-300)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnergyBalanceAtSteadyState(t *testing.T) {
	// At steady state, injected power equals heat flow to ambient.
	n := NewNetwork(295)
	a, _ := n.AddNode(Node{Name: "a", Capacitance: 5, GAmbient: 0.2})
	b, _ := n.AddNode(Node{Name: "b", Capacitance: 8, GAmbient: 0.4})
	if err := n.Connect(a, b, 1.0); err != nil {
		t.Fatal(err)
	}
	powers := []float64{1.2, 0.8}
	ss, err := n.SteadyState(powers)
	if err != nil {
		t.Fatal(err)
	}
	out := 0.2*(ss[0]-295) + 0.4*(ss[1]-295)
	if !approx(out, 2.0, 1e-9) {
		t.Errorf("heat out = %v, want 2.0 (energy balance)", out)
	}
}
