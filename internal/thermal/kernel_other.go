//go:build !amd64

package thermal

// rk4Block8 is the 8-lane RK4 kernel; architectures without the SSE2
// assembly run the portable form.
func rk4Block8(t, p, scratch []float64, rows []nodeRow, pairs []couple, out *[8][]float64, amb *[8]float64, dt float64, live int) {
	rk4Block8Go(t, p, scratch, rows, pairs, out, amb, dt, live)
}
