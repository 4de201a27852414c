package nn

import "math"

// useGEMM routes ForwardBatch and BackwardBatch through gemm. It is set once
// from the CPU; tests flip it to run both paths.
var useGEMM = haveAVX2

// Register-tile shape of gemm4x8.
const (
	tileRows = 4
	tileCols = 8
)

// gemm computes C[r·ldc + j] += Σ_κ A[r·ar + κ·ak] · B[κ·ldb + j] for r < m
// and j < nc, adding the terms for κ = 0 … k-1 in ascending order, each as a
// multiply then an add. Every element thus rounds exactly as the scalar loop
// s += a·b does, which keeps the batched layers bit-identical to per-sample
// Forward and Backward. Full 4×8 tiles run in gemm4x8; the edge rows and
// columns run in Go.
func gemm(c []float64, ldc int, a []float64, ar, ak int, b []float64, ldb int, m, nc, k int) {
	if m <= 0 || nc <= 0 || k <= 0 {
		return
	}
	// Index the last element each operand is read or written at, so a shape
	// bug panics here instead of running the kernel past a slice.
	_ = c[(m-1)*ldc+nc-1]
	_ = a[(m-1)*ar+(k-1)*ak]
	_ = b[(k-1)*ldb+nc-1]
	mt, nt := m/tileRows, nc/tileCols
	if mt > 0 && nt > 0 {
		gemm4x8(&c[0], ldc, &a[0], ar, ak, &b[0], ldb, mt, nt, k)
	}
	gemmEdge(c, ldc, a, ar, ak, b, ldb, 0, mt*tileRows, nt*tileCols, nc, k)
	gemmEdge(c, ldc, a, ar, ak, b, ldb, mt*tileRows, m, 0, nc, k)
}

// gemmEdge is gemm over rows [r0, r1) and columns [j0, j1) in scalar Go.
// Whole groups of four rows go two columns at a time, the remaining rows
// four columns at a time: independent sums keep the adds from waiting on
// each other's latency, and each loaded operand feeds several of them.
func gemmEdge(c []float64, ldc int, a []float64, ar, ak int, b []float64, ldb int, r0, r1, j0, j1, k int) {
	if j0 == j1 {
		return
	}
	r := r0
	for ; r+4 <= r1; r += 4 {
		j := j0
		for ; j+2 <= j1; j += 2 {
			edge4x2(c, ldc, a, ar, ak, b, ldb, r, j, k)
		}
		if j < j1 {
			edge4x1(c, ldc, a, ar, ak, b, ldb, r, j, k)
		}
	}
	for ; r < r1; r++ {
		j := j0
		for ; j+4 <= j1; j += 4 {
			edge1x4(c, ldc, a, ar, ak, b, ldb, r, j, k)
		}
		for ; j < j1; j++ {
			s := c[r*ldc+j]
			ai, bi := r*ar, j
			for kk := 0; kk < k; kk++ {
				s += a[ai] * b[bi]
				ai += ak
				bi += ldb
			}
			c[r*ldc+j] = s
		}
	}
}

// edge4x2 is gemm on the 4-row × 2-column block of C at (r, j).
func edge4x2(c []float64, ldc int, a []float64, ar, ak int, b []float64, ldb int, r, j, k int) {
	c0 := c[r*ldc+j : r*ldc+j+2 : r*ldc+j+2]
	c1 := c[(r+1)*ldc+j : (r+1)*ldc+j+2 : (r+1)*ldc+j+2]
	c2 := c[(r+2)*ldc+j : (r+2)*ldc+j+2 : (r+2)*ldc+j+2]
	c3 := c[(r+3)*ldc+j : (r+3)*ldc+j+2 : (r+3)*ldc+j+2]
	s00, s01, s10, s11 := c0[0], c0[1], c1[0], c1[1]
	s20, s21, s30, s31 := c2[0], c2[1], c3[0], c3[1]
	ai, bi := r*ar, j
	for kk := 0; kk < k; kk++ {
		bq := b[bi : bi+2 : bi+2]
		b0, b1 := bq[0], bq[1]
		a0 := a[ai]
		s00 += a0 * b0
		s01 += a0 * b1
		a1 := a[ai+ar]
		s10 += a1 * b0
		s11 += a1 * b1
		a2 := a[ai+2*ar]
		s20 += a2 * b0
		s21 += a2 * b1
		a3 := a[ai+3*ar]
		s30 += a3 * b0
		s31 += a3 * b1
		ai += ak
		bi += ldb
	}
	c0[0], c0[1], c1[0], c1[1] = s00, s01, s10, s11
	c2[0], c2[1], c3[0], c3[1] = s20, s21, s30, s31
}

// edge4x1 is gemm on the 4-row × 1-column block of C at (r, j).
func edge4x1(c []float64, ldc int, a []float64, ar, ak int, b []float64, ldb int, r, j, k int) {
	ci := r*ldc + j
	s0, s1, s2, s3 := c[ci], c[ci+ldc], c[ci+2*ldc], c[ci+3*ldc]
	ai, bi := r*ar, j
	for kk := 0; kk < k; kk++ {
		bv := b[bi]
		s0 += a[ai] * bv
		s1 += a[ai+ar] * bv
		s2 += a[ai+2*ar] * bv
		s3 += a[ai+3*ar] * bv
		ai += ak
		bi += ldb
	}
	c[ci], c[ci+ldc], c[ci+2*ldc], c[ci+3*ldc] = s0, s1, s2, s3
}

// edge1x4 is gemm on the 1-row × 4-column block of C at (r, j).
func edge1x4(c []float64, ldc int, a []float64, ar, ak int, b []float64, ldb int, r, j, k int) {
	cq := c[r*ldc+j : r*ldc+j+4 : r*ldc+j+4]
	s0, s1, s2, s3 := cq[0], cq[1], cq[2], cq[3]
	ai, bi := r*ar, j
	for kk := 0; kk < k; kk++ {
		av := a[ai]
		bq := b[bi : bi+4 : bi+4]
		s0 += av * bq[0]
		s1 += av * bq[1]
		s2 += av * bq[2]
		s3 += av * bq[3]
		ai += ak
		bi += ldb
	}
	cq[0], cq[1], cq[2], cq[3] = s0, s1, s2, s3
}

// applyAll sets ys[i] = a.Apply(ys[i]), with the activation switch hoisted
// out of the loop for the hidden layers' ReLU and the identity.
func (a Activation) applyAll(ys []float64) {
	switch a {
	case Identity:
	case ReLU:
		// Select on the bits so the compiler emits a conditional move:
		// the sign of a hidden unit is a coin flip to a branch predictor.
		for i, v := range ys {
			u := math.Float64bits(v)
			if v < 0 {
				u = 0
			}
			ys[i] = math.Float64frombits(u)
		}
	default:
		for i, v := range ys {
			ys[i] = a.Apply(v)
		}
	}
}

// deltas sets delta[i] = dy[i] · a.DerivFromOutput(y[i]), the product
// Backward forms, with the ReLU case hoisted out of the switch.
func (a Activation) deltas(delta, dy, y []float64) {
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	y = y[:len(dy)]
	if a == ReLU {
		for i, g := range dy {
			u := uint64(0)
			if y[i] > 0 {
				u = one
			}
			delta[i] = g * math.Float64frombits(u)
		}
		return
	}
	for i, g := range dy {
		delta[i] = g * a.DerivFromOutput(y[i])
	}
}

// forwardGEMM is ForwardBatch's kernel on the GEMM path: Y starts as the
// bias rows, then Y += X·Wᵀ, then the activation.
func (d *Dense) forwardGEMM(n int) {
	in, out := d.In, d.Out
	for o := 0; o < out; o++ {
		for i, w := range d.W[o*in : (o+1)*in] {
			d.wt[i*out+o] = w
		}
	}
	bias := d.B[:out]
	for b := 0; b < n; b++ {
		// A loop, not copy: a memmove call per row costs more than the
		// row itself at the output layers' widths of 1 and 2.
		row := d.by[b*out : (b+1)*out]
		for o := range row {
			row[o] = bias[o]
		}
	}
	gemm(d.by, out, d.bx, in, 1, d.wt, out, n, out, in)
	d.Act.applyAll(d.by)
}

// backwardGEMM is BackwardBatch's kernel on the GEMM path: δ = dy ⊙ σ′(y),
// GB += Σ_b δ_b, GW += δᵀ·X, and dX = +0 + δ·W. The +0 seed matches
// Backward, where 0 + (−0) rounds to +0.
func (d *Dense) backwardGEMM(dy []float64, n int) {
	in, out := d.In, d.Out
	delta := d.bdelta
	d.Act.deltas(delta, dy, d.by)
	gb := d.GB[:out]
	for b := 0; b < n; b++ {
		for o, v := range delta[b*out : (b+1)*out] {
			gb[o] += v
		}
	}
	gemm(d.GW, in, delta, 1, out, d.bx, in, out, in, n)
	clear(d.bdx)
	gemm(d.bdx, in, delta, out, 1, d.W, in, n, in, out)
}
