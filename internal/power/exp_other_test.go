//go:build !amd64

package power

import "testing"

// checkKernels is a no-op where ExpInto has no packed kernel.
func checkKernels(*testing.T, []float64) {}
