package thermal

// Property-based tests of the RC network over randomized topologies:
// physical invariants (cooling contraction, energy conservation) and
// structural invariants (conductance symmetry, coupling survival across
// AddNode regrowth) that must hold for any network the flat-slice
// layout can represent. Together with the differential golden test in
// internal/sim they are the safety net under the allocation-free
// integrator.

import (
	"math"
	"math/rand"
	"testing"
)

// randomNetwork builds a connected random network of 2..8 nodes with at
// least one ambient-coupled node, returning it alongside its node IDs.
func randomNetwork(t *testing.T, rng *rand.Rand) (*Network, []NodeID) {
	t.Helper()
	n := NewNetwork(ToKelvin(25))
	num := 2 + rng.Intn(7)
	ids := make([]NodeID, 0, num)
	for i := 0; i < num; i++ {
		gAmb := 0.0
		// Roughly half the nodes couple to ambient; node 0 always does so
		// the network can never be adrift of its only heat sink.
		if i == 0 || rng.Float64() < 0.5 {
			gAmb = 0.05 + 2*rng.Float64()
		}
		id, err := n.AddNode(Node{
			Name:        "n" + string(rune('a'+i)),
			Capacitance: 1 + 49*rng.Float64(),
			GAmbient:    gAmb,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A spanning chain keeps the network connected; extra random
	// couplings densify it.
	for i := 1; i < num; i++ {
		if err := n.Connect(ids[i-1], ids[i], 0.1+5*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < num; i++ {
		for j := i + 1; j < num; j++ {
			if rng.Float64() < 0.3 {
				if err := n.Connect(ids[i], ids[j], 0.1+5*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return n, ids
}

// TestPropertyZeroPowerDecay: with zero power injection, a network
// started uniformly above ambient must cool toward ambient — the
// hottest node's temperature is non-increasing every step, no node ever
// leaves the [ambient, start] envelope, and the network converges to
// ambient. (Individual interior nodes may rewarm transiently as heat
// redistributes, so monotonicity is asserted on the envelope, the
// quantity the maximum principle guarantees.)
func TestPropertyZeroPowerDecay(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Bounded time constants (C ≤ 10 J/K, GAmbient ≥ 0.5 W/K on every
		// node, so τ ≤ 20 s per node) keep "converges to ambient" checkable
		// in a few thousand steps; randomNetwork's unbounded τ would need
		// hundreds of simulated minutes.
		n := NewNetwork(ToKelvin(25))
		num := 2 + rng.Intn(7)
		ids := make([]NodeID, 0, num)
		for i := 0; i < num; i++ {
			id, err := n.AddNode(Node{
				Name:        "d",
				Capacitance: 1 + 9*rng.Float64(),
				GAmbient:    0.5 + 2*rng.Float64(),
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 1; i < num; i++ {
			if err := n.Connect(ids[i-1], ids[i], 0.1+5*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < num; i++ {
			for j := i + 2; j < num; j++ {
				if rng.Float64() < 0.3 {
					if err := n.Connect(ids[i], ids[j], 0.1+5*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		startK := n.ambient + 30
		for _, id := range ids {
			if err := n.SetTemperature(id, startK); err != nil {
				t.Fatal(err)
			}
		}
		powers := make([]float64, n.NumNodes())
		const dt, steps = 0.02, 6000
		prevMax := startK
		for s := 0; s < steps; s++ {
			if err := n.Step(dt, powers); err != nil {
				t.Fatal(err)
			}
			maxK, _, err := n.MaxTemperature()
			if err != nil {
				t.Fatal(err)
			}
			if maxK > prevMax+1e-9 {
				t.Fatalf("seed %d step %d: hottest node warmed under zero power: %.12f -> %.12f", seed, s, prevMax, maxK)
			}
			prevMax = maxK
			for _, id := range ids {
				k, err := n.Temperature(id)
				if err != nil {
					t.Fatal(err)
				}
				if k < n.ambient-1e-9 || k > startK+1e-9 {
					t.Fatalf("seed %d step %d: node %d left the [ambient, start] envelope: %v", seed, s, id, k)
				}
			}
		}
		if prevMax > n.ambient+0.5 {
			t.Fatalf("seed %d: network failed to approach ambient after %v s: max still %.3f K above",
				seed, dt*steps, prevMax-n.ambient)
		}
	}
}

// TestPropertyConnectSymmetryAndReplace: random sequences of Connect
// calls — including repeated re-connections of the same pair — must
// leave the conductance matrix symmetric with last-write-wins values,
// and growing the network with AddNode must preserve every existing
// coupling across the flat matrix regrowth.
func TestPropertyConnectSymmetryAndReplace(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := NewNetwork(ToKelvin(25))
		num := 3 + rng.Intn(6)
		ids := make([]NodeID, 0, num)
		for i := 0; i < num; i++ {
			id, err := n.AddNode(Node{Name: "x", Capacitance: 10, GAmbient: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		// want[a][b] tracks the expected symmetric conductances.
		want := make(map[[2]NodeID]float64)
		key := func(a, b NodeID) [2]NodeID {
			if a > b {
				a, b = b, a
			}
			return [2]NodeID{a, b}
		}
		for k := 0; k < 50; k++ {
			a, b := ids[rng.Intn(num)], ids[rng.Intn(num)]
			if a == b {
				continue
			}
			g := rng.Float64() * 10
			if err := n.Connect(a, b, g); err != nil {
				t.Fatal(err)
			}
			want[key(a, b)] = g
		}
		check := func(context string) {
			t.Helper()
			m := n.NumNodes()
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					gij, gji := n.g[i*m+j], n.g[j*m+i]
					if gij != gji {
						t.Fatalf("seed %d (%s): conductance asymmetric: g[%d][%d]=%v g[%d][%d]=%v", seed, context, i, j, gij, i, j, gji)
					}
					if i != j && NodeID(i) < NodeID(num) && NodeID(j) < NodeID(num) {
						if wantG := want[key(NodeID(i), NodeID(j))]; gij != wantG {
							t.Fatalf("seed %d (%s): g[%d][%d]=%v, want last-written %v", seed, context, i, j, gij, wantG)
						}
					}
				}
			}
		}
		check("after connects")
		// Growing the matrix must not disturb existing couplings.
		if _, err := n.AddNode(Node{Name: "grown", Capacitance: 5, GAmbient: 0.1}); err != nil {
			t.Fatal(err)
		}
		check("after AddNode regrowth")
	}
}

// TestPropertyEnergyBalance: over any run with constant power
// injection, energy conservation must hold within integration
// tolerance: energy in − energy out to ambient = change in stored
// thermal energy. The ambient outflow is integrated with the trapezoid
// rule, whose O(dt²) error dominates RK4's; the tolerance reflects
// that, not the integrator.
func TestPropertyEnergyBalance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		n := NewNetwork(ToKelvin(25))
		num := 2 + rng.Intn(7)
		caps := make([]float64, num)
		gAmbs := make([]float64, num)
		ids := make([]NodeID, 0, num)
		for i := 0; i < num; i++ {
			caps[i] = 1 + 49*rng.Float64()
			if i == 0 || rng.Float64() < 0.5 {
				gAmbs[i] = 0.05 + 2*rng.Float64()
			}
			id, err := n.AddNode(Node{Name: "e", Capacitance: caps[i], GAmbient: gAmbs[i]})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 1; i < num; i++ {
			if err := n.Connect(ids[i-1], ids[i], 0.1+5*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		powers := make([]float64, n.NumNodes())
		for i := range powers {
			if rng.Float64() < 0.7 {
				powers[i] = 5 * rng.Float64()
			}
		}

		stored := func() float64 {
			e := 0.0
			for i := 0; i < n.NumNodes(); i++ {
				k, err := n.Temperature(NodeID(i))
				if err != nil {
					t.Fatal(err)
				}
				e += caps[i] * (k - n.ambient)
			}
			return e
		}
		outflow := func() float64 {
			f := 0.0
			for i := 0; i < n.NumNodes(); i++ {
				k, err := n.Temperature(NodeID(i))
				if err != nil {
					t.Fatal(err)
				}
				f += gAmbs[i] * (k - n.ambient)
			}
			return f
		}

		const dt, steps = 0.001, 4000
		eIn, eOut := 0.0, 0.0
		e0 := stored()
		prevOut := outflow()
		for s := 0; s < steps; s++ {
			if err := n.Step(dt, powers); err != nil {
				t.Fatal(err)
			}
			curOut := outflow()
			eOut += 0.5 * (prevOut + curOut) * dt
			prevOut = curOut
			for _, p := range powers {
				eIn += p * dt
			}
		}
		deltaStored := stored() - e0
		imbalance := math.Abs(eIn - eOut - deltaStored)
		scale := math.Max(1, math.Max(eIn, math.Abs(deltaStored)))
		if imbalance/scale > 1e-3 {
			t.Fatalf("seed %d: energy imbalance %.6f J (in %.3f, out %.3f, Δstored %.3f, rel %.2e)",
				seed, imbalance, eIn, eOut, deltaStored, imbalance/scale)
		}
	}
}
