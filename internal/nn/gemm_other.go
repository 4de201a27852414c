//go:build !amd64

package nn

// haveAVX2 is false off amd64: ForwardBatch and BackwardBatch run their
// portable Go kernels.
const haveAVX2 = false

func gemm4x8(c *float64, ldc int, a *float64, ar, ak int, b *float64, ldb int, mt, nt, k int) {
	panic("nn: no GEMM kernel on this architecture")
}
