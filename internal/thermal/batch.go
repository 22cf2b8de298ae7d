package thermal

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// BatchNetwork steps B same-topology networks in lockstep. Lanes are
// packed into blocks of eight, and each block is stored node-major: in
// block k, node i of lane l lives at k*m*8 + i*8 + l, so node i's eight
// lanes form one 64-byte lane row (the buffers are 64-byte aligned, one
// lane row per cache line). One call of the 8-lane RK4 kernel
// (kernel.go) integrates a whole block: packed SSE2 assembly on amd64,
// the portable Go kernel elsewhere. Every width runs that kernel; a
// partial last block is padded with lanes that hold ambient temperature
// under zero power, which stay exactly at ambient and whose results go
// to a sink.
//
// Per lane, the kernel performs Network.Step's float64 operations
// in the same order (the rules are listed in kernel.go), so a batched
// lane is bitwise-identical to the same network stepped alone; the
// differential tests in this package pin that for the assembly and the
// portable kernel alike.
//
// The batch holds live references to the member networks: Gather
// reads their temperatures, and the kernel's final pass writes each
// step's results straight back into their storage, so interleaved
// per-lane reads (sensors, governors) always see current state. A
// BatchNetwork is not safe for concurrent use, and the member networks
// must not be stepped independently while batched (nothing breaks, but
// those steps would not be fused).
type BatchNetwork struct {
	nets  []*Network
	m     int // nodes per network
	lanes int // B

	// Shared topology, validated bitwise-equal across lanes.
	ambient float64
	rows    []nodeRow // len m
	pairs   []couple  // row-major nonzero conductances

	// Block-of-8 state, len ceil(B/8)*m*8: temperatures and the staged
	// per-node power injection. scratch is the kernel's scratch for
	// one block, reused by every block.
	temps, powers, scratch []float64

	// outs[k][l] is where the kernel writes lane 8k+l's temperatures:
	// the member network's own storage, or sink for padding lanes.
	// len(outs) is the block count.
	outs [][8][]float64
	sink []float64
}

// NewBatchNetwork couples the given networks into one lockstep batch.
// All networks must share the same topology bitwise: node count,
// ambient temperature, capacitances, ambient couplings and the full
// conductance matrix. Temperatures may differ per lane.
func NewBatchNetwork(nets []*Network) (*BatchNetwork, error) {
	bn := &BatchNetwork{}
	if err := bn.Rebind(nets); err != nil {
		return nil, err
	}
	return bn, nil
}

// Rebind points the batch at a new set of networks, reusing the SoA
// buffers when the shape (node count × lane count) is unchanged — the
// reuse hook the sweep engine pool relies on to make per-batch setup
// allocation-free. The same topology rules as NewBatchNetwork apply.
func (bn *BatchNetwork) Rebind(nets []*Network) error {
	if len(nets) == 0 {
		return fmt.Errorf("thermal: batch needs at least one network")
	}
	proto := nets[0]
	m := len(proto.nodes)
	if m == 0 {
		return fmt.Errorf("thermal: batch networks must have at least one node")
	}
	for li, n := range nets[1:] {
		if err := sameTopology(proto, n); err != nil {
			return fmt.Errorf("thermal: batch lane %d: %w", li+1, err)
		}
	}

	bn.nets = append(bn.nets[:0], nets...)
	bn.ambient = proto.ambient
	bn.rows = append(bn.rows[:0], proto.rows...)
	bn.pairs = append(bn.pairs[:0], proto.pairs...)

	if bn.m != m || bn.lanes != len(nets) {
		bn.m, bn.lanes = m, len(nets)
		blocks := (len(nets) + 7) / 8
		bn.temps = alignedFloats(blocks * m * 8)
		bn.powers = alignedFloats(blocks * m * 8)
		bn.scratch = alignedFloats(kernelScratch * m * 8)
		bn.outs = make([][8][]float64, blocks)
		bn.sink = make([]float64, m)
	} else {
		// Padding lanes must inject zero power; a same-shape rebind
		// keeps the buffers, so clear them.
		clear(bn.powers)
	}
	for b := 0; b < len(bn.outs)*8; b++ {
		dst := bn.sink
		if b < len(nets) {
			dst = nets[b].temps
		}
		bn.outs[b/8][b%8] = dst
	}
	bn.Gather()
	return nil
}

// alignedFloats returns a zeroed length-n slice whose first element is
// 64-byte aligned, so every lane row of a block sits in one cache line
// (and satisfies the SSE2 kernel's 16-byte alignment). Go's heap never
// moves objects, so the alignment holds for the slice's lifetime.
func alignedFloats(n int) []float64 {
	buf := make([]float64, n+7)
	off := int(-uintptr(unsafe.Pointer(&buf[0])) & 63 / 8)
	return buf[off : off+n : off+n]
}

// slot returns the index of node 0 of lane b in the block layout; node
// i of the lane is at slot(b) + i*8.
func (bn *BatchNetwork) slot(b int) int {
	return b/8*bn.m*8 + b%8
}

// sameTopology reports why two networks cannot share a batch. Plain
// float equality is exact here: every compared quantity is validated
// finite at construction, so there are no NaNs to mis-compare.
func sameTopology(a, b *Network) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("node count %d != %d", len(b.nodes), len(a.nodes))
	}
	if a.ambient != b.ambient {
		return fmt.Errorf("ambient %v != %v", b.ambient, a.ambient)
	}
	if !slices.Equal(a.rows, b.rows) || !slices.Equal(a.pairs, b.pairs) {
		return fmt.Errorf("node parameters or couplings differ")
	}
	return nil
}

// Lanes returns the number of member networks.
func (bn *BatchNetwork) Lanes() int { return bn.lanes }

// NumNodes returns the per-network node count.
func (bn *BatchNetwork) NumNodes() int { return bn.m }

// Gather pulls every member network's current temperatures into the
// packed block state, and sets the padding lanes of a partial last
// block to ambient. Call it once before a run of Step calls; Step
// itself keeps the packed state and the member networks in sync, so
// re-gathering per step is only needed if a lane's temperatures were
// mutated externally (SetTemperature, Prewarm) since the last Step.
func (bn *BatchNetwork) Gather() {
	for b, n := range bn.nets {
		x := bn.slot(b)
		for _, t := range n.temps {
			bn.temps[x] = t
			x += 8
		}
	}
	for b := bn.lanes; b < len(bn.outs)*8; b++ {
		for i, x := 0, bn.slot(b); i < bn.m; i, x = i+1, x+8 {
			bn.temps[x] = bn.ambient
		}
	}
}

// SetLanePowers stages lane b's per-node power injection (watts) for
// the next Advance. powers must hold NumNodes values. This is how a
// lockstep engine feeds the kernel without building a node-major
// copy first.
func (bn *BatchNetwork) SetLanePowers(b int, powers []float64) {
	x := bn.slot(b)
	for i := 0; i < bn.m; i++ {
		bn.powers[x] = powers[i]
		x += 8
	}
}

// Advance steps every lane by dt seconds under the powers staged with
// SetLanePowers, and writes the results back to the member networks.
// It integrates from the packed state (sync it with Gather after any
// external temperature write). Advance performs no allocations.
func (bn *BatchNetwork) Advance(dt float64) error {
	if dt <= 0 || math.IsNaN(dt) {
		return fmt.Errorf("thermal: step dt must be positive, got %v", dt)
	}
	bn.advance(dt, rk4Block8)
	return nil
}

// Step advances every lane by dt seconds under the packed per-node
// power injection (node-major: powers[i*Lanes()+lane], in watts), the
// batched counterpart of Network.Step. It is SetLanePowers for every
// lane followed by Advance. Step performs no allocations.
func (bn *BatchNetwork) Step(dt float64, powers []float64) error {
	if len(powers) != bn.m*bn.lanes {
		return fmt.Errorf("thermal: got %d powers for %d nodes × %d lanes", len(powers), bn.m, bn.lanes)
	}
	B := bn.lanes
	for b := 0; b < B; b++ {
		x := bn.slot(b)
		for i := 0; i < bn.m; i++ {
			bn.powers[x] = powers[i*B+b]
			x += 8
		}
	}
	return bn.Advance(dt)
}

// advance runs kernel over every block; the kernel writes each lane's
// new temperatures back to its network.
func (bn *BatchNetwork) advance(dt float64, kernel func(t, p, scratch []float64, rows []nodeRow, pairs []couple, out *[8][]float64, amb, dt float64)) {
	size := bn.m * 8
	for k := range bn.outs {
		o := k * size
		kernel(bn.temps[o:o+size], bn.powers[o:o+size], bn.scratch, bn.rows, bn.pairs, &bn.outs[k], bn.ambient, dt)
	}
}
