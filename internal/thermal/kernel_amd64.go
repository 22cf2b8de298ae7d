package thermal

// rk4Block8 is the 8-lane RK4 kernel in packed SSE2 (kernel_amd64.s),
// bit-identical to rk4Block8Go, including its live width (4 or 8).
// SSE2 is part of the amd64 baseline, so no CPU feature check is
// needed.
//
//go:noescape
func rk4Block8(t, p, scratch []float64, rows []nodeRow, pairs []couple, out *[8][]float64, amb *[8]float64, dt float64, live int)
