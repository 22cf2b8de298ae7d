package thermal

import (
	"errors"
	"fmt"
	"math"
)

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
