// Package nntest runs tests on each of internal/nn's batched-kernel paths:
// the AVX2 GEMM kernels and the portable Go kernels under
// Dense.ForwardBatch and Dense.BackwardBatch. Only tests import it.
package nntest

import (
	"testing"
	_ "unsafe" // for go:linkname

	_ "github.com/deeppower/deeppower/internal/nn"
)

// useGEMM is nn's kernel switch, reached by linkname so that nn exports no
// knob. Its value at start is the CPU's choice.
//
//go:linkname useGEMM github.com/deeppower/deeppower/internal/nn.useGEMM
var useGEMM bool

// EachKernelPath runs f as subtest "portable" on the portable Go kernels
// and, where the CPU has AVX2, as subtest "gemm" on the GEMM kernels, then
// restores the CPU's choice. The switch is process-wide: no other test may
// run batched kernels in parallel with f.
func EachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	cpu := useGEMM
	defer func() { useGEMM = cpu }()
	useGEMM = false
	t.Run("portable", f)
	if cpu {
		useGEMM = true
		t.Run("gemm", f)
	}
}
