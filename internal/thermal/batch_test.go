package thermal

import (
	"math"
	"testing"
)

// buildTestNetwork wires a 4-node network with an asymmetric topology
// (one node coupled to everything, one weakly coupled leaf).
func buildTestNetwork(t testing.TB, ambientK float64) *Network {
	t.Helper()
	n := NewNetwork(ambientK)
	ids := make([]NodeID, 0, 4)
	for i, spec := range []Node{
		{Name: "a", Capacitance: 1.5, GAmbient: 0.02},
		{Name: "b", Capacitance: 2.0},
		{Name: "c", Capacitance: 0.7, GAmbient: 0.1},
		{Name: "d", Capacitance: 5.0},
	} {
		id, err := n.AddNode(spec)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	couple := func(a, b NodeID, g float64) {
		if err := n.Connect(a, b, g); err != nil {
			t.Fatal(err)
		}
	}
	couple(ids[0], ids[1], 0.4)
	couple(ids[0], ids[2], 0.25)
	couple(ids[0], ids[3], 0.9)
	couple(ids[2], ids[3], 0.05)
	return n
}

// TestBatchNetworkMatchesScalar pins the fused kernel bitwise against
// Network.Step: lanes with distinct temperatures and powers, stepped
// together, must match the same networks stepped alone, sample for
// sample, across widths that fill one 8-lane kernel block, part of one,
// and more than one.
func TestBatchNetworkMatchesScalar(t *testing.T) {
	for _, lanes := range []int{1, 3, 8, 9, 16} {
		scalar := make([]*Network, lanes)
		batched := make([]*Network, lanes)
		for b := 0; b < lanes; b++ {
			scalar[b] = buildTestNetwork(t, 298.15)
			batched[b] = buildTestNetwork(t, 298.15)
			for i := 0; i < scalar[b].NumNodes(); i++ {
				k := 300 + float64(b) + 0.5*float64(i)
				if err := scalar[b].SetTemperature(NodeID(i), k); err != nil {
					t.Fatal(err)
				}
				if err := batched[b].SetTemperature(NodeID(i), k); err != nil {
					t.Fatal(err)
				}
			}
		}
		bn, err := NewBatchNetwork(batched)
		if err != nil {
			t.Fatal(err)
		}
		m := scalar[0].NumNodes()
		packed := make([]float64, m*lanes)
		powers := make([]float64, m)
		for step := 0; step < 500; step++ {
			for b := 0; b < lanes; b++ {
				for i := 0; i < m; i++ {
					p := 2.5 * float64((step+b+i)%3)
					powers[i] = p
					packed[i*lanes+b] = p
				}
				if err := scalar[b].Step(0.001, powers); err != nil {
					t.Fatal(err)
				}
			}
			if err := bn.Step(0.001, packed); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < lanes; b++ {
			want := scalar[b].Temperatures()
			got := batched[b].Temperatures()
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("lanes=%d lane %d node %d differs bitwise after 500 steps: %v vs %v",
						lanes, b, i, want[i], got[i])
				}
			}
		}
	}
}

// TestBatchNetworkPowersAreLaneLocal ensures a lane only sees its own
// injection: heating lane 0 must leave lane 1 exactly on its solo
// trajectory.
func TestBatchNetworkPowersAreLaneLocal(t *testing.T) {
	a := buildTestNetwork(t, 300)
	b := buildTestNetwork(t, 300)
	solo := buildTestNetwork(t, 300)
	bn, err := NewBatchNetwork([]*Network{a, b})
	if err != nil {
		t.Fatal(err)
	}
	m := a.NumNodes()
	packed := make([]float64, m*2)
	for i := 0; i < m; i++ {
		packed[i*2] = 10 // lane 0 heated hard, lane 1 unpowered
	}
	zero := make([]float64, m)
	for step := 0; step < 200; step++ {
		if err := bn.Step(0.001, packed); err != nil {
			t.Fatal(err)
		}
		if err := solo.Step(0.001, zero); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		got, _ := b.Temperature(NodeID(i))
		want, _ := solo.Temperature(NodeID(i))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lane 1 node %d perturbed by lane 0: %v vs %v", i, got, want)
		}
	}
	hot, _ := a.Temperature(0)
	cold, _ := b.Temperature(0)
	if hot <= cold {
		t.Fatalf("heated lane should be hotter: %v vs %v", hot, cold)
	}
}

// TestBatchNetworkRebindReuse pins the pooling contract: rebinding a
// shell to new same-shape networks reuses buffers and produces the
// same results as a fresh batch; rebinding to a different shape
// reallocates and still works.
func TestBatchNetworkRebindReuse(t *testing.T) {
	first := []*Network{buildTestNetwork(t, 300), buildTestNetwork(t, 300)}
	bn, err := NewBatchNetwork(first)
	if err != nil {
		t.Fatal(err)
	}
	m := first[0].NumNodes()
	packed := make([]float64, m*2)
	if err := bn.Step(0.001, packed); err != nil {
		t.Fatal(err)
	}

	next := []*Network{buildTestNetwork(t, 300), buildTestNetwork(t, 300)}
	if err := bn.Rebind(next); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBatchNetwork([]*Network{buildTestNetwork(t, 300), buildTestNetwork(t, 300)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range packed {
		packed[i] = float64(i)
	}
	if err := bn.Step(0.001, packed); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Step(0.001, packed); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		want := fresh.nets[b].Temperatures()
		got := next[b].Temperatures()
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("rebound batch diverges from fresh batch at lane %d node %d", b, i)
			}
		}
	}

	// Different shape: single wider lane set.
	wide := []*Network{
		buildTestNetwork(t, 300), buildTestNetwork(t, 300), buildTestNetwork(t, 300),
	}
	if err := bn.Rebind(wide); err != nil {
		t.Fatal(err)
	}
	if bn.lanes != 3 {
		t.Fatalf("lanes = %d after rebind, want 3", bn.lanes)
	}
	if err := bn.Step(0.001, make([]float64, m*3)); err != nil {
		t.Fatal(err)
	}
}

// TestBatchNetworkRejectsMismatch covers the topology validation.
func TestBatchNetworkRejectsMismatch(t *testing.T) {
	base := buildTestNetwork(t, 300)

	heavy := NewNetwork(300) // buildTestNetwork with node d's capacitance changed
	for _, spec := range []Node{
		{Name: "a", Capacitance: 1.5, GAmbient: 0.02},
		{Name: "b", Capacitance: 2.0},
		{Name: "c", Capacitance: 0.7, GAmbient: 0.1},
		{Name: "d", Capacitance: 5.5},
	} {
		if _, err := heavy.AddNode(spec); err != nil {
			t.Fatal(err)
		}
	}
	copy(heavy.g, base.g)
	heavy.index()
	if _, err := NewBatchNetwork([]*Network{base, heavy}); err == nil {
		t.Error("different capacitance should be rejected")
	}

	recoupled := buildTestNetwork(t, 300)
	if err := recoupled.Connect(1, 3, 0.123); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchNetwork([]*Network{base, recoupled}); err == nil {
		t.Error("different coupling should be rejected")
	}

	small := NewNetwork(300)
	if _, err := small.AddNode(Node{Name: "x", Capacitance: 1, GAmbient: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchNetwork([]*Network{base, small}); err == nil {
		t.Error("different node count should be rejected")
	}
	if _, err := NewBatchNetwork(nil); err == nil {
		t.Error("empty batch should be rejected")
	}

	bn, err := NewBatchNetwork([]*Network{base})
	if err != nil {
		t.Fatal(err)
	}
	if err := bn.Step(0.001, make([]float64, 1)); err == nil {
		t.Error("short powers slice should be rejected")
	}
	if err := bn.Step(-1, make([]float64, base.NumNodes())); err == nil {
		t.Error("non-positive dt should be rejected")
	}
}

// TestBatchNetworkRebindMixedAmbient pins per-lane ambient: networks
// that differ only in ambient temperature share a batch (on a fresh
// batch and on a rebind of a pooled one) and each lane matches its own
// Network.Step bit for bit, while a capacitance mismatch is still
// rejected with its error.
func TestBatchNetworkRebindMixedAmbient(t *testing.T) {
	ambients := []float64{300, 301, 290.5, 300, 310, 295, 305, 299, 288, 302}
	build := func() (batch, scalar []*Network) {
		for l, a := range ambients {
			n, s := buildTestNetwork(t, a), buildTestNetwork(t, a)
			for i := 0; i < n.NumNodes(); i++ {
				temp := a + float64(l) + 3*float64(i)
				if err := n.SetTemperature(NodeID(i), temp); err != nil {
					t.Fatal(err)
				}
				if err := s.SetTemperature(NodeID(i), temp); err != nil {
					t.Fatal(err)
				}
			}
			batch, scalar = append(batch, n), append(scalar, s)
		}
		return batch, scalar
	}
	// A pooled shell of another shape and ambient, rebound.
	bn, err := NewBatchNetwork([]*Network{buildTestNetwork(t, 320), buildTestNetwork(t, 320)})
	if err != nil {
		t.Fatal(err)
	}
	batch, scalar := build()
	if err := bn.Rebind(batch); err != nil {
		t.Fatalf("lanes differing only in ambient rejected: %v", err)
	}
	m := bn.NumNodes()
	packed := make([]float64, m*len(batch))
	for step := 0; step < 200; step++ {
		for l, s := range scalar {
			p := make([]float64, m)
			for i := range p {
				p[i] = float64((step+l+i)%5) * 0.7
				packed[i*len(batch)+l] = p[i]
			}
			if err := s.Step(0.01, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := bn.Step(0.01, packed); err != nil {
			t.Fatal(err)
		}
		for l := range scalar {
			for i, want := range scalar[l].temps {
				if got := batch[l].temps[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d lane %d (ambient %v) node %d: batch %v, scalar %v", step, l, ambients[l], i, got, want)
				}
			}
		}
	}

	other := NewNetwork(300)
	if _, err := other.AddNode(Node{Name: "a", Capacitance: 1.5, GAmbient: 0.02}); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Node{{Name: "b", Capacitance: 2.0}, {Name: "c", Capacitance: 0.8, GAmbient: 0.1}, {Name: "d", Capacitance: 5.0}} {
		if _, err := other.AddNode(spec); err != nil {
			t.Fatal(err)
		}
	}
	copy(other.g, batch[0].g)
	other.index()
	err = bn.Rebind(append(batch[:2:2], other))
	if err == nil || err.Error() != "thermal: batch lane 2: node parameters or couplings differ" {
		t.Fatalf("capacitance mismatch: got error %v", err)
	}
}
