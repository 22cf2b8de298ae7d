package sweep

import (
	"fmt"
	"testing"
)

func TestDeriveSeedStability(t *testing.T) {
	// Golden values pin the derivation across refactors: a silent change
	// would reshuffle every recorded sweep.
	golden := []struct {
		base      int64
		replicate int
		want      int64
	}{
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{1, 2, -534904783426661026},
		{42, 0, -4767286540954276203},
		{-3, 0, -621772950581698083},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.base, g.replicate); got != g.want {
			t.Errorf("DeriveSeed(%d, %d) = %d, want %d", g.base, g.replicate, got, g.want)
		}
	}
	// Distinctness across replicates and bases.
	seen := make(map[int64]string)
	for base := int64(0); base < 8; base++ {
		for r := 0; r < 8; r++ {
			s := DeriveSeed(base, r)
			key := fmt.Sprintf("base %d replicate %d", base, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
