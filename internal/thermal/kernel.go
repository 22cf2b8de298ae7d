package thermal

// The 8-lane RK4 kernel. One call integrates one classic RK4 step for
// one block of eight same-topology lanes, stored node-major within the
// block: node i's eight lane values form one 64-byte "lane row" at
// [i*8, i*8+8). The topology (capacitances, ambient and internal
// conductances) is shared by the block; the ambient temperature is per
// lane, read from one 8-lane row like a temperature row. A block whose
// live lanes fit in four is integrated on lanes 0–3 only (live = 4):
// the layout stays eight lanes wide, and lanes 4–7 are neither read
// nor written. The amd64 build runs the kernel in packed SSE2 assembly
// (kernel_amd64.s); every other architecture runs rk4Block8Go, which is
// compiled everywhere so the differential tests can pin the two to
// each other and to Network.Step bit for bit.
//
// Bit identity with Network.Step rests on doing, per lane, exactly
// the scalar float64 operations in the scalar order:
//
//   - derivative of node i: power, minus gAmb*(t-ambient[l]), minus
//     g*(t-t_j) for each nonzero coupling in ascending j, then the
//     division by the capacitance;
//   - stage updates t + (0.5*dt)*k and t + dt*k;
//   - the final t + (dt/6)*(((k1+2*k2)+2*k3)+k4), with dt/6 computed once.
//
// The kernel keeps that sum as a running accumulator (k1, then
// +2*k2, then +2*k3, then +k4), which rounds at exactly the points
// the left-to-right expression does. No fused multiply-add and no
// reciprocal multiply is used: both would change the rounding.

// nodeRow is one node's share of the shared topology, in the form the
// kernel walks: its ambient conductance, its capacitance, and how many
// of the next couples belong to its row.
type nodeRow struct {
	gAmb float64
	capc float64
	n    int
}

// couple is one nonzero entry g = G[i][j] of the conductance matrix.
// A row's couples are stored consecutively in ascending j, rows in
// ascending i, the order Network.derivs accumulates them in.
type couple struct {
	j int
	g float64
}

// kernelScratch counts the block-sized scratch vectors the kernel
// needs: the running RK4 slope sum and two stage vectors.
const kernelScratch = 3

// rk4Block8Go is the portable 8-lane kernel: one RK4 step of dt for
// lanes [0, live) of the block t (temperatures, updated in place) under
// powers p, lane l coupled to ambient temperature amb[l]; live is 4 or
// 8. t and p hold len(rows) lane rows; scratch holds
// kernelScratch*len(rows) lane rows. The final pass also writes lane
// l's new temperatures to out[l], which must hold len(rows) values.
func rk4Block8Go(t, p, scratch []float64, rows []nodeRow, pairs []couple, out *[8][]float64, amb *[8]float64, dt float64, live int) {
	n := len(rows) * 8
	t, p = t[:n], p[:n]
	acc, sa, sb := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	h2, dt6 := 0.5*dt, dt/6

	// Pass k reads its stage from src and, for k < 3, writes the next
	// stage to stg: t → sa → sb → sa.
	src, stg := t, sa
	for pass := 0; pass < 4; pass++ {
		var dl [8]float64
		d := dl[:live]
		c := 0
		for i, r := range rows {
			ti := (*[8]float64)(src[i*8:])
			pi := (*[8]float64)(p[i*8:])
			for l := range d {
				d[l] = pi[l] - r.gAmb*(ti[l]-amb[l])
			}
			for _, cp := range pairs[c : c+r.n] {
				tj := (*[8]float64)(src[cp.j*8:])
				for l := range d {
					d[l] -= cp.g * (ti[l] - tj[l])
				}
			}
			c += r.n
			for l := range d {
				d[l] /= r.capc
			}

			T := (*[8]float64)(t[i*8:])
			a := (*[8]float64)(acc[i*8:])
			s := (*[8]float64)(stg[i*8:])
			switch pass {
			case 0:
				for l := range d {
					a[l] = d[l]
					s[l] = T[l] + h2*d[l]
				}
			case 1:
				for l := range d {
					a[l] = a[l] + 2*d[l]
					s[l] = T[l] + h2*d[l]
				}
			case 2:
				for l := range d {
					a[l] = a[l] + 2*d[l]
					s[l] = T[l] + dt*d[l]
				}
			case 3:
				// Only lane row i of t is read past this point in
				// the pass (as T), so updating it in place is safe.
				for l := range d {
					T[l] = T[l] + dt6*(a[l]+d[l])
					out[l][i] = T[l]
				}
			}
		}
		switch pass {
		case 0:
			src, stg = sa, sb
		case 1:
			src, stg = sb, sa
		case 2:
			src = sa
		}
	}
}
