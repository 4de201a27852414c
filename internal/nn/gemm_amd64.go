package nn

// haveAVX2 reports whether this CPU and OS run the AVX2 GEMM kernel: CPUID
// must report AVX and AVX2, and XGETBV must show the OS saving the XMM and
// YMM register state.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// gemm4x8 runs the full 4-row × 8-column tiles of gemm: mt row tiles by nt
// column tiles, k ≥ 1 terms each. Implemented in gemm_amd64.s.
//
//go:noescape
func gemm4x8(c *float64, ldc int, a *float64, ar, ak int, b *float64, ldb int, mt, nt, k int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
