//go:build !amd64

package power

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for every i < len(src). dst
// must hold at least len(src) values; it may be src itself but must
// not otherwise overlap it. Architectures without the packed amd64
// kernels (exp_amd64.s) run this plain loop.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}
