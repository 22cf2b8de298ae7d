package power

import "math"

// expFMA (exp_amd64.s) evaluates math.Exp eight lanes at a time,
// replaying the FMA operation sequence of Go's amd64 math.Exp. It runs
// the full 8-value blocks of src into dst, stops at the first block
// holding a value outside [-708, 709] (or a NaN), and returns how many
// values it wrote.
//
//go:noescape
func expFMA(dst, src []float64) int

// probe is an input on which math.Exp's FMA and SSE2 sequences round
// differently; probeFMABits and probeSSE2Bits are their results there.
const (
	probe         = -17.0
	probeFMABits  = 0x3e6639e3175a689d
	probeSSE2Bits = 0x3e6639e3175a689c
)

// useFMA reports whether math.Exp runs the FMA sequence, the one
// expFMA replays. It asks math.Exp itself rather than the CPU, so it
// follows whatever sequence Go chose, GODEBUG=cpu.fma=off included.
var useFMA = math.Float64bits(math.Exp(probe)) == probeFMABits

// ExpInto sets dst[i] = math.Exp(src[i]) for every i < len(src), bit
// for bit on every host. dst must hold at least len(src) values; it
// may be src itself but must not otherwise overlap it. Where math.Exp
// runs its FMA sequence, full blocks of eight run through the packed
// expFMA, and a tail of two to seven values runs as one more block,
// zero-padded on the stack. A block holding a value outside [-708,
// 709] — overflow, the denormal range, ±Inf, NaN — falls back to
// math.Exp, as do a one-value tail (padding it measured slower than
// one call) and every value on hosts where math.Exp runs its SSE2
// sequence.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useFMA {
		full := len(src) &^ 7
		for i < full {
			i += expFMA(dst[i:full], src[i:full])
			if i < full {
				expLoop(dst[i:i+8], src[i:i+8])
				i += 8
			}
		}
		if n := len(src) - full; n >= 2 {
			var block [8]float64
			copy(block[:], src[full:])
			if expFMA(block[:], block[:]) == 8 {
				copy(dst[full:], block[:n])
				return
			}
		}
	}
	expLoop(dst[i:], src[i:])
}

func expLoop(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}
