package thermal

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// randomTopology builds width networks sharing one random valid
// topology drawn from r: nodes nodes with random capacitances, a mix
// of ambient-coupled and internal (zero GAmbient) nodes, and sparse
// symmetric couplings that may leave some nodes isolated. Each lane
// has its own ambient temperature and starts from its own random
// temperatures. Half the draws put ambient near zero with temperatures
// of the same scale as one step's change, so a rounding difference
// anywhere in the step reaches the result instead of vanishing below
// the last bit of a 300 K temperature.
func randomTopology(t *testing.T, r *rand.Rand, nodes, width int) []*Network {
	t.Helper()
	small := r.Intn(2) == 0
	spread := 60.0
	if small {
		spread = math.Pow(10, -2+3*r.Float64())
	}
	specs := make([]Node, nodes)
	for i := range specs {
		specs[i] = Node{Capacitance: 0.5 + 20*r.Float64()}
		if r.Intn(3) > 0 {
			specs[i].GAmbient = 0.5 * r.Float64()
		}
	}
	type link struct {
		a, b NodeID
		g    float64
	}
	var links []link
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			if r.Intn(3) == 0 {
				links = append(links, link{NodeID(a), NodeID(b), 2 * r.Float64()})
			}
		}
	}
	nets := make([]*Network, width)
	for l := range nets {
		ambient := 273.15 + 15 + 20*r.Float64()
		if small {
			ambient = 0.01 + r.Float64()
		}
		n := NewNetwork(ambient)
		for _, s := range specs {
			if _, err := n.AddNode(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range links {
			if err := n.Connect(k.a, k.b, k.g); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nodes; i++ {
			if err := n.SetTemperature(NodeID(i), ambient+spread*r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		nets[l] = n
	}
	return nets
}

// cloneNetworks returns independent copies of nets with equal state.
func cloneNetworks(t *testing.T, nets []*Network) []*Network {
	t.Helper()
	out := make([]*Network, len(nets))
	for l, src := range nets {
		n := NewNetwork(src.ambient)
		for _, node := range src.nodes {
			if _, err := n.AddNode(node); err != nil {
				t.Fatal(err)
			}
		}
		copy(n.g, src.g)
		n.index()
		copy(n.temps, src.temps)
		out[l] = n
	}
	return out
}

// FuzzBatchNetworkMatchesScalar is the seeded differential referee of
// the thermal kernel: for a random topology (1–12 nodes), width (1–17
// lanes, so half blocks, partial blocks that run whole and several
// blocks all occur), a distinct ambient per lane, lane temperatures,
// per-step powers and dt, 50 steps through the SSE2 kernel (on amd64),
// the portable Go kernel (given the same live width per block, by
// advance) and per-network Network.Step must agree bit for bit. The
// seed corpus below runs in every `go test`; `go test -fuzz` explores
// beyond it.
func FuzzBatchNetworkMatchesScalar(f *testing.F) {
	for seed := int64(0); seed < 34; seed++ {
		f.Add(seed, uint8(seed%17), uint8(seed%12))
	}
	f.Fuzz(func(t *testing.T, seed int64, width, nodes uint8) {
		w, m := int(width)%17+1, int(nodes)%12+1
		r := rand.New(rand.NewSource(seed))
		scalar := randomTopology(t, r, m, w)
		asmNets, goNets := cloneNetworks(t, scalar), cloneNetworks(t, scalar)
		asm, err := NewBatchNetwork(asmNets)
		if err != nil {
			t.Fatal(err)
		}
		port, err := NewBatchNetwork(goNets)
		if err != nil {
			t.Fatal(err)
		}
		dt := math.Pow(10, -4+3*r.Float64())
		lanePowers := make([][]float64, w)
		for l := range lanePowers {
			lanePowers[l] = make([]float64, m)
		}
		packed := make([]float64, m*w)
		for step := 0; step < 50; step++ {
			for l, p := range lanePowers {
				for i := range p {
					if r.Intn(4) > 0 {
						p[i] = 5 * r.Float64()
					} else {
						p[i] = 0
					}
					packed[i*w+l] = p[i]
				}
				if err := scalar[l].Step(dt, p); err != nil {
					t.Fatal(err)
				}
				port.SetLanePowers(l, p)
			}
			if err := asm.Step(dt, packed); err != nil {
				t.Fatal(err)
			}
			port.advance(dt, rk4Block8Go)
			for l := range scalar {
				for i, want := range scalar[l].temps {
					a, g := asmNets[l].temps[i], goNets[l].temps[i]
					if math.Float64bits(a) != math.Float64bits(want) || math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("seed %d width %d nodes %d dt %v step %d: lane %d node %d: scalar %v, kernel %v, portable %v",
							seed, w, m, dt, step, l, i, want, a, g)
					}
				}
			}
		}
	})
}

// TestBatchNetworkPaddingStaysAmbient pins the padding contract of a
// partial block, for a 3-lane half block and a 6-lane partial block
// that runs whole: padding lanes hold ambient under zero power, so
// they never move; a half block leaves lanes 4–7 untouched, while a
// whole block integrates every padding lane; and a rebind to the same
// shape clears staged powers and resets padding to the new ambient.
func TestBatchNetworkPaddingStaysAmbient(t *testing.T) {
	for _, tc := range []struct {
		lanes int
		half  bool
	}{{3, true}, {6, false}} {
		build := func(ambient float64) []*Network {
			nets := make([]*Network, tc.lanes)
			for l := range nets {
				nets[l] = buildTestNetwork(t, ambient)
			}
			return nets
		}
		bn, err := NewBatchNetwork(build(300))
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < tc.lanes; l++ {
			bn.SetLanePowers(l, []float64{3, 1, 4, 1})
		}
		for step := 0; step < 100; step++ {
			if err := bn.Advance(0.01); err != nil {
				t.Fatal(err)
			}
		}
		for l := tc.lanes; l < 8; l++ {
			for i := 0; i < bn.NumNodes(); i++ {
				if got := bn.temps[bn.slot(l)+i*8]; got != 300 {
					t.Fatalf("%d lanes: padding lane %d node %d drifted to %v", tc.lanes, l, i, got)
				}
			}
		}

		// Move every padding lane off ambient: one step pulls an
		// integrated lane back toward it, and leaves the rest alone.
		for l := tc.lanes; l < 8; l++ {
			bn.temps[bn.slot(l)] = 250
		}
		if err := bn.Advance(0.01); err != nil {
			t.Fatal(err)
		}
		for l := tc.lanes; l < 8; l++ {
			integrated := !tc.half || l < 4
			if moved := bn.temps[bn.slot(l)] != 250; moved != integrated {
				t.Fatalf("%d lanes: padding lane %d moved %v, want %v", tc.lanes, l, moved, integrated)
			}
		}

		if err := bn.Rebind(build(310)); err != nil {
			t.Fatal(err)
		}
		for x, p := range bn.powers {
			if p != 0 {
				t.Fatalf("%d lanes: staged power %d survived a rebind: %v", tc.lanes, x, p)
			}
		}
		if got := bn.temps[bn.slot(7)]; got != 310 {
			t.Fatalf("%d lanes: padding lane not reset to the new ambient: %v", tc.lanes, got)
		}
		if err := bn.Advance(0); err == nil {
			t.Error("zero dt should be rejected")
		}
	}
}

// TestBatchNetworkRebindAcrossHalfBlock rebinds one shell through 8,
// 3, 8 and 12 lanes, so full blocks, a half block, and a half block
// stepped after a full block in the same call all reuse scratch that
// other lanes wrote. At every stage each lane must match its own
// Network.Step bit for bit: lanes 4–7 of a half block's scratch may
// hold anything, and none of it may leak into a live lane.
func TestBatchNetworkRebindAcrossHalfBlock(t *testing.T) {
	var bn *BatchNetwork
	for stage, lanes := range []int{8, 3, 8, 12} {
		batched := make([]*Network, lanes)
		scalar := make([]*Network, lanes)
		for l := range batched {
			ambient := 290 + 2*float64(stage) + float64(l)
			batched[l], scalar[l] = buildTestNetwork(t, ambient), buildTestNetwork(t, ambient)
			for i := 0; i < batched[l].NumNodes(); i++ {
				temp := ambient + 5*float64(stage+1) + float64(l+i)
				if err := batched[l].SetTemperature(NodeID(i), temp); err != nil {
					t.Fatal(err)
				}
				if err := scalar[l].SetTemperature(NodeID(i), temp); err != nil {
					t.Fatal(err)
				}
			}
		}
		if bn == nil {
			var err error
			if bn, err = NewBatchNetwork(batched); err != nil {
				t.Fatal(err)
			}
		} else if err := bn.Rebind(batched); err != nil {
			t.Fatal(err)
		}
		m := bn.NumNodes()
		p := make([]float64, m)
		for step := 0; step < 100; step++ {
			for l, s := range scalar {
				for i := range p {
					p[i] = float64((step+3*l+i+stage)%7) * 0.9
				}
				if err := s.Step(0.005, p); err != nil {
					t.Fatal(err)
				}
				bn.SetLanePowers(l, p)
			}
			if err := bn.Advance(0.005); err != nil {
				t.Fatal(err)
			}
			for l := range scalar {
				for i, want := range scalar[l].temps {
					if got := batched[l].temps[i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%d lanes, step %d: lane %d node %d: batch %v, scalar %v", lanes, step, l, i, got, want)
					}
				}
			}
		}
	}
}

// TestAlignedFloats pins the kernel's alignment precondition.
func TestAlignedFloats(t *testing.T) {
	for n := 1; n < 40; n++ {
		s := alignedFloats(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("alignedFloats(%d): len %d cap %d", n, len(s), cap(s))
		}
		if addr := uintptr(unsafe.Pointer(&s[0])); addr%64 != 0 {
			t.Fatalf("alignedFloats(%d) starts at %#x, not 64-byte aligned", n, addr)
		}
	}
}
