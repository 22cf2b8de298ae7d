// Package thermal implements the RC thermal substrate used by the
// simulator: a lumped multi-node resistor-capacitor network with ambient
// coupling, RK4 time integration, steady-state solving, and noisy
// temperature sensors.
//
// Temperatures are in Kelvin internally; helpers convert to Celsius for
// reporting, matching the paper's figures.
//
// The network stores its state in flat slices — a row-major
// conductance matrix, and the sparse rows the RK4 kernels walk (per
// node its capacitance, ambient coupling and nonzero couplings) — and
// preallocates all RK4 scratch, so Step performs zero allocations in
// steady state. This layout is what lets the simulation engine's hot
// loop run allocation-free; the differential golden test in
// internal/sim pins it bitwise against the original slice-of-slices
// implementation.
//
// BatchNetwork steps many same-topology networks in lockstep through
// one 8-lane RK4 kernel. Lanes are packed into blocks of eight, stored
// node-major within a block so one node's eight lanes fill one 64-byte
// lane row; a partial last block is padded with lanes held at ambient
// under zero power. On amd64 the kernel is packed SSE2 assembly (two
// lanes per instruction; SSE2 is in the amd64 baseline, so there is no
// CPU detection). Every other architecture runs the portable Go kernel,
// which is compiled everywhere so the tests can pin the assembly, the
// portable kernel and Network.Step to each other bit for bit. The rules
// that keep a batched lane bitwise-equal to the scalar step are listed
// in kernel.go: the scalar term order per node, (0.5*dt)*k and dt*k
// stage updates, dt/6 computed once, the slope sum
// ((k1+2*k2)+2*k3)+k4, and no fused multiply-add or reciprocal
// multiply.
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// CelsiusOffset converts between Kelvin and degrees Celsius.
const CelsiusOffset = 273.15

// ToCelsius converts a Kelvin temperature to Celsius.
func ToCelsius(k float64) float64 { return k - CelsiusOffset }

// ToKelvin converts a Celsius temperature to Kelvin.
func ToKelvin(c float64) float64 { return c + CelsiusOffset }

// NodeID identifies a node within a Network.
type NodeID int

// Node is a thermal mass in the network.
type Node struct {
	// Name identifies the node in traces ("big", "gpu", "skin", ...).
	Name string
	// Capacitance is the thermal capacitance in J/K. Must be > 0.
	Capacitance float64
	// GAmbient is the conductance to ambient in W/K (0 for internal nodes).
	GAmbient float64
}

// Network is a lumped RC thermal network. Create one with NewNetwork,
// add nodes and couplings, then advance it with Step.
//
// A Network is not safe for concurrent use: Step and StepEuler share
// preallocated integration scratch.
type Network struct {
	nodes   []Node
	temps   []float64 // current temperatures, K
	ambient float64   // ambient temperature, K

	// Flat hot-path layout, maintained by AddNode and Connect. g is the
	// row-major m×m symmetric node-to-node conductance matrix (W/K).
	// rows and pairs are its sparse form, the one derivs and the 8-lane
	// kernel walk: per node its ambient conductance, capacitance and
	// count of nonzero couplings, which follow in pairs in ascending j.
	g     []float64
	rows  []nodeRow
	pairs []couple

	// Preallocated RK4 stage scratch (k1..k4 slopes plus the stage
	// temperature vector), sized by AddNode.
	k1, k2, k3, k4, stage []float64
}

// NewNetwork creates an empty network at the given ambient temperature
// (Kelvin).
func NewNetwork(ambientK float64) *Network {
	return &Network{ambient: ambientK}
}

// AddNode appends a node initialized to ambient temperature and returns
// its ID. It returns an error for non-positive capacitance or negative
// ambient conductance.
func (n *Network) AddNode(node Node) (NodeID, error) {
	if node.Capacitance <= 0 || math.IsNaN(node.Capacitance) {
		return -1, fmt.Errorf("thermal: node %q capacitance must be positive, got %v", node.Name, node.Capacitance)
	}
	if node.GAmbient < 0 || math.IsNaN(node.GAmbient) {
		return -1, fmt.Errorf("thermal: node %q ambient conductance must be >= 0, got %v", node.Name, node.GAmbient)
	}
	id := NodeID(len(n.nodes))
	m := len(n.nodes)
	n.nodes = append(n.nodes, node)
	n.temps = append(n.temps, n.ambient)

	// Grow the row-major matrix from m×m to (m+1)×(m+1), preserving the
	// existing couplings; the new row and column start at zero.
	grown := make([]float64, (m+1)*(m+1))
	for i := 0; i < m; i++ {
		copy(grown[i*(m+1):i*(m+1)+m], n.g[i*m:i*m+m])
	}
	n.g = grown
	n.index()

	n.k1 = make([]float64, m+1)
	n.k2 = make([]float64, m+1)
	n.k3 = make([]float64, m+1)
	n.k4 = make([]float64, m+1)
	n.stage = make([]float64, m+1)
	return id, nil
}

// Connect couples nodes a and b with conductance gWPerK (W/K). Calling it
// again for the same pair replaces the previous value.
func (n *Network) Connect(a, b NodeID, gWPerK float64) error {
	if err := n.check(a); err != nil {
		return err
	}
	if err := n.check(b); err != nil {
		return err
	}
	if a == b {
		return errors.New("thermal: cannot connect a node to itself")
	}
	if gWPerK < 0 || math.IsNaN(gWPerK) {
		return fmt.Errorf("thermal: conductance must be >= 0, got %v", gWPerK)
	}
	m := len(n.nodes)
	n.g[int(a)*m+int(b)] = gWPerK
	n.g[int(b)*m+int(a)] = gWPerK
	n.index()
	return nil
}

// index rebuilds rows and pairs from the nodes and the dense matrix.
func (n *Network) index() {
	m := len(n.nodes)
	n.rows, n.pairs = n.rows[:0], n.pairs[:0]
	for i, node := range n.nodes {
		first := len(n.pairs)
		for j, g := range n.g[i*m : i*m+m] {
			if g != 0 {
				n.pairs = append(n.pairs, couple{j: j, g: g})
			}
		}
		n.rows = append(n.rows, nodeRow{gAmb: node.GAmbient, capc: node.Capacitance, n: len(n.pairs) - first})
	}
}

// Conductance returns the node-to-node conductance between a and b
// (W/K); distinct unconnected nodes — and a node paired with itself —
// report 0.
func (n *Network) Conductance(a, b NodeID) (float64, error) {
	if err := n.check(a); err != nil {
		return 0, err
	}
	if err := n.check(b); err != nil {
		return 0, err
	}
	if a == b {
		return 0, nil
	}
	return n.g[int(a)*len(n.nodes)+int(b)], nil
}

func (n *Network) check(id NodeID) error {
	if id < 0 || int(id) >= len(n.nodes) {
		return fmt.Errorf("thermal: node id %d out of range [0,%d)", id, len(n.nodes))
	}
	return nil
}

// NumNodes reports how many nodes the network holds.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NodeName returns the name of node id ("" if out of range).
func (n *Network) NodeName(id NodeID) string {
	if n.check(id) != nil {
		return ""
	}
	return n.nodes[id].Name
}

// Ambient returns the ambient temperature in Kelvin.
func (n *Network) Ambient() float64 { return n.ambient }

// Temperature returns the current temperature of node id in Kelvin.
func (n *Network) Temperature(id NodeID) (float64, error) {
	if err := n.check(id); err != nil {
		return 0, err
	}
	return n.temps[id], nil
}

// Temperatures returns a copy of all node temperatures in Kelvin.
func (n *Network) Temperatures() []float64 {
	return append([]float64(nil), n.temps...)
}

// TempsView returns the live node-temperature storage (Kelvin, indexed
// by NodeID) for read-only use: the simulation engine's batched step
// path reads temperatures every step and cannot afford the bounds/error
// checking of Temperature. Callers must treat the slice as immutable;
// writes would bypass the positivity validation of SetTemperature.
func (n *Network) TempsView() []float64 { return n.temps }

// MaxTemperature returns the hottest node temperature in Kelvin and its
// node ID. It returns an error for an empty network.
func (n *Network) MaxTemperature() (float64, NodeID, error) {
	if len(n.temps) == 0 {
		return 0, -1, errors.New("thermal: empty network")
	}
	best, id := n.temps[0], NodeID(0)
	for i, t := range n.temps {
		if t > best {
			best, id = t, NodeID(i)
		}
	}
	return best, id, nil
}

// SetTemperature overrides the temperature of node id (Kelvin).
func (n *Network) SetTemperature(id NodeID, k float64) error {
	if err := n.check(id); err != nil {
		return err
	}
	if math.IsNaN(k) || k <= 0 {
		return fmt.Errorf("thermal: temperature must be positive Kelvin, got %v", k)
	}
	n.temps[id] = k
	return nil
}

// Reset returns every node to ambient temperature.
func (n *Network) Reset() {
	for i := range n.temps {
		n.temps[i] = n.ambient
	}
}

// derivs fills dst with dT/dt for the given temperatures and node powers.
// It walks each node's nonzero couplings in ascending j, the flop order
// of the historical sparse-row walk that the bitwise differential test
// and the 8-lane kernel rely on.
func (n *Network) derivs(dst, temps, powers []float64) {
	c := 0
	for i, r := range n.rows {
		ti := temps[i]
		q := powers[i]
		q -= r.gAmb * (ti - n.ambient)
		for _, cp := range n.pairs[c : c+r.n] {
			q -= cp.g * (ti - temps[cp.j])
		}
		c += r.n
		dst[i] = q / r.capc
	}
}

// checkStep validates the shared Step/StepEuler arguments.
func (n *Network) checkStep(dt float64, powers []float64) error {
	if len(powers) != len(n.nodes) {
		return fmt.Errorf("thermal: got %d powers for %d nodes", len(powers), len(n.nodes))
	}
	if dt <= 0 || math.IsNaN(dt) {
		return fmt.Errorf("thermal: step dt must be positive, got %v", dt)
	}
	return nil
}

// Step advances the network by dt seconds with the given per-node power
// injection (W) using classic fourth-order Runge-Kutta. len(powers) must
// equal NumNodes. Step performs no allocations: all integration scratch
// is preallocated by AddNode.
func (n *Network) Step(dt float64, powers []float64) error {
	if err := n.checkStep(dt, powers); err != nil {
		return err
	}
	m := len(n.nodes)
	temps, k1, k2, k3, k4, stage := n.temps, n.k1, n.k2, n.k3, n.k4, n.stage

	n.derivs(k1, temps, powers)
	for i := 0; i < m; i++ {
		stage[i] = temps[i] + 0.5*dt*k1[i]
	}
	n.derivs(k2, stage, powers)
	for i := 0; i < m; i++ {
		stage[i] = temps[i] + 0.5*dt*k2[i]
	}
	n.derivs(k3, stage, powers)
	for i := 0; i < m; i++ {
		stage[i] = temps[i] + dt*k3[i]
	}
	n.derivs(k4, stage, powers)
	for i := 0; i < m; i++ {
		temps[i] = temps[i] + dt/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
	return nil
}

// StepEuler advances the network by dt seconds using forward Euler. It is
// retained for the integration-accuracy ablation benchmark.
func (n *Network) StepEuler(dt float64, powers []float64) error {
	if err := n.checkStep(dt, powers); err != nil {
		return err
	}
	d := n.k1
	n.derivs(d, n.temps, powers)
	for i := range n.temps {
		n.temps[i] += dt * d[i]
	}
	return nil
}

// SteadyState solves for the equilibrium temperatures (Kelvin) under
// constant per-node powers by Gaussian elimination on the conductance
// matrix. It does not modify the network's current temperatures.
func (n *Network) SteadyState(powers []float64) ([]float64, error) {
	m := len(n.nodes)
	if len(powers) != m {
		return nil, fmt.Errorf("thermal: got %d powers for %d nodes", len(powers), m)
	}
	if m == 0 {
		return nil, errors.New("thermal: empty network")
	}
	// Build A*T = b where A[i][i] = GAmb_i + sum_j g_ij, A[i][j] = -g_ij,
	// b[i] = P_i + GAmb_i * Tamb.
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, m)
		diag := n.rows[i].gAmb
		row := n.g[i*m : i*m+m]
		for j := 0; j < m; j++ {
			if i != j {
				a[i][j] = -row[j]
				diag += row[j]
			}
		}
		a[i][i] = diag
		b[i] = powers[i] + n.rows[i].gAmb*n.ambient
	}
	return solveLinear(a, b)
}

// solveLinear performs Gaussian elimination with partial pivoting on a
// copy of (a, b), returning x with a*x = b.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	m := len(b)
	// Work on copies so the caller's slices survive.
	aa := make([][]float64, m)
	for i := range a {
		aa[i] = append([]float64(nil), a[i]...)
	}
	bb := append([]float64(nil), b...)

	for col := 0; col < m; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < m; r++ {
			if math.Abs(aa[r][col]) > math.Abs(aa[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aa[pivot][col]) < 1e-15 {
			return nil, errors.New("thermal: singular conductance matrix (node with no path to ambient?)")
		}
		aa[col], aa[pivot] = aa[pivot], aa[col]
		bb[col], bb[pivot] = bb[pivot], bb[col]
		for r := col + 1; r < m; r++ {
			f := aa[r][col] / aa[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < m; c++ {
				aa[r][c] -= f * aa[col][c]
			}
			bb[r] -= f * bb[col]
		}
	}
	x := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		sum := bb[r]
		for c := r + 1; c < m; c++ {
			sum -= aa[r][c] * x[c]
		}
		x[r] = sum / aa[r][r]
	}
	return x, nil
}

// Lumped reduces the network to a single-node equivalent: the total
// capacitance and the effective resistance from a uniform-temperature
// interior to ambient. The reduction backs the paper's lumped stability
// analysis (Section IV-A), which treats the platform as one R and one C.
type Lumped struct {
	// CapacitanceJPerK is the sum of node capacitances.
	CapacitanceJPerK float64
	// ResistanceKPerW is 1 / (sum of ambient conductances).
	ResistanceKPerW float64
}

// Lump computes the single-node reduction.
func (n *Network) Lump() (Lumped, error) {
	var c, g float64
	for _, node := range n.nodes {
		c += node.Capacitance
		g += node.GAmbient
	}
	if g <= 0 {
		return Lumped{}, errors.New("thermal: network has no ambient coupling")
	}
	return Lumped{CapacitanceJPerK: c, ResistanceKPerW: 1 / g}, nil
}
