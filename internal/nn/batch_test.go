package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/sim"
)

// randBatch fills a row-major [n×dim] buffer with values in (-1.5, 1.5) —
// wide enough to hit both ReLU regimes and the tanh/sigmoid curvature.
func randBatch(rng *sim.RNG, n, dim int) []float64 {
	x := make([]float64, n*dim)
	for i := range x {
		x[i] = rng.Uniform(-1.5, 1.5)
	}
	return x
}

// sameFloat reports whether a and b are the same float64 bit for bit, or
// both NaN. NaN payloads are left out: Go does not specify them, and the
// compiler may swap the operands of a commutative MULSD or ADDSD, which
// decides whose payload a NaN⊕NaN result carries.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// bitEq compares float64 slices for exact bit equality, NaN payloads aside
// (no tolerance: the batched kernels promise the same arithmetic in the same
// order).
func bitEq(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d]: batched %v (bits %x) vs per-sample %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// finiteSpecials are both zeros and subnormals; specials add NaN and both
// infinities. The bit-identity table mixes them into its inputs.
var (
	finiteSpecials = []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 2.5e-308, -1e-310}
	specials       = append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, finiteSpecials...)
)

// sprinkle overwrites about one element in every rate with a special value.
func sprinkle(rng *sim.RNG, xs []float64, rate int) {
	for i := range xs {
		if rng.Intn(rate) == 0 {
			xs[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// tileDims straddle the kernel's 4-row × 8-column tile edges, and include
// the agent's widths (8, 16, 34 = 32 + 2).
var tileDims = []int{1, 2, 3, 4, 7, 8, 9, 16, 17, 34}

// TestDenseBatchBitIdentity asserts ForwardBatch/BackwardBatch reproduce n
// per-sample Forward/Backward calls bit-for-bit — outputs, accumulated
// weight/bias gradients, and input gradients — on every kernel path, for
// every activation, for layer widths and batch sizes on both sides of the
// tile edges, and for inputs carrying NaN, ±Inf, −0 and subnormals.
func TestDenseBatchBitIdentity(t *testing.T) {
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			onPath(t, p)
			rng := sim.NewRNG(11)
			for _, act := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
				for _, in := range tileDims {
					for _, out := range tileDims {
						for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 64} {
							denseBitIdentity(t, rng, act, in, out, n)
						}
					}
				}
			}
		})
	}
}

// denseBitIdentity checks one layer shape and batch size; the first pass
// uses ordinary values, the second mixes in special values.
func denseBitIdentity(t *testing.T, rng *sim.RNG, act Activation, in, out, n int) {
	t.Helper()
	for _, special := range []bool{false, true} {
		ref := NewDense(in, out, act, rng)
		x := randBatch(rng, n, in)
		dy := randBatch(rng, n, out)
		if special {
			sprinkle(rng, x, 16)
			sprinkle(rng, dy, 16)
			// Signed zeros and subnormals in the parameters too; NaN or
			// Inf there would poison every output.
			for _, ps := range [][]float64{ref.W, ref.B} {
				for i := range ps {
					if rng.Intn(8) == 0 {
						ps[i] = finiteSpecials[rng.Intn(len(finiteSpecials))]
					}
				}
			}
		}
		bat := ref.Clone()

		// Per-sample reference: accumulate gradients across the batch.
		refY := make([]float64, n*out)
		refDX := make([]float64, n*in)
		for b := 0; b < n; b++ {
			y := ref.Forward(x[b*in : (b+1)*in])
			copy(refY[b*out:], y)
			dx := ref.Backward(dy[b*out : (b+1)*out])
			copy(refDX[b*in:], dx)
		}

		gotY := bat.ForwardBatch(x, n)
		gotDX := bat.BackwardBatch(dy, n)

		what := fmt.Sprintf("%v %d→%d n=%d special=%v", act, in, out, n, special)
		bitEq(t, what+" y", gotY, refY)
		bitEq(t, what+" dx", gotDX, refDX)
		bitEq(t, what+" GW", bat.GW, ref.GW)
		bitEq(t, what+" GB", bat.GB, ref.GB)
	}
}

// netBitIdentity runs the per-sample and batched paths of two clones of the
// same network and asserts outputs, input gradients, and every parameter
// gradient agree bit-for-bit.
func netBitIdentity(t *testing.T, ref, bat Network, n int, seed int64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	in, out := ref.InDim(), ref.OutDim()
	x := randBatch(rng, n, in)
	dy := randBatch(rng, n, out)

	refY := make([]float64, n*out)
	refDX := make([]float64, n*in)
	for b := 0; b < n; b++ {
		y := ref.Forward(x[b*in : (b+1)*in])
		copy(refY[b*out:], y)
		dx := ref.Backward(dy[b*out : (b+1)*out])
		copy(refDX[b*in:], dx)
	}

	gotY := bat.ForwardBatch(x, n)
	gotDX := bat.BackwardBatch(dy, n)

	bitEq(t, "y", gotY, refY)
	bitEq(t, "dx", gotDX, refDX)
	rp, bp := ref.Params(), bat.Params()
	if len(rp) != len(bp) {
		t.Fatalf("param count %d vs %d", len(rp), len(bp))
	}
	for li := range rp {
		bitEq(t, "GW", bp[li].GW, rp[li].GW)
		bitEq(t, "GB", bp[li].GB, rp[li].GB)
	}
}

func TestMLPBatchBitIdentity(t *testing.T) {
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			onPath(t, p)
			for _, outAct := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
				rng := sim.NewRNG(13)
				ref := NewMLP([]int{8, 32, 24, 16, 2}, ReLU, outAct, rng)
				netBitIdentity(t, ref, ref.Clone(), 64, 17)
			}
		})
	}
}

func TestTwoHeadBatchBitIdentity(t *testing.T) {
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			onPath(t, p)
			for _, outAct := range []Activation{Identity, ReLU, Sigmoid, Tanh} {
				rng := sim.NewRNG(19)
				ref := NewTwoHead(8, []int{32, 24}, []int{16}, 2, outAct, rng)
				netBitIdentity(t, ref, ref.CloneNet(), 64, 23)
			}
			// Degenerate topologies: no trunk, and heads that attach
			// directly to the trunk output.
			rng := sim.NewRNG(29)
			ref := NewTwoHead(6, nil, []int{8}, 3, Sigmoid, rng)
			netBitIdentity(t, ref, ref.CloneNet(), 10, 31)
			rng = sim.NewRNG(37)
			ref = NewTwoHead(6, []int{12}, nil, 2, Tanh, rng)
			netBitIdentity(t, ref, ref.CloneNet(), 10, 41)
		})
	}
}

// TestBatchKernelsZeroAlloc: after a warm-up call has grown the scratch
// arenas, the batched forward/backward kernels must never touch the heap.
func TestBatchKernelsZeroAlloc(t *testing.T) {
	const n = 64
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			onPath(t, p)
			rng := sim.NewRNG(43)
			for name, net := range map[string]Network{
				"mlp":     NewMLP([]int{8, 32, 24, 16, 2}, ReLU, Sigmoid, rng),
				"twohead": NewTwoHead(8, []int{32, 24}, []int{16}, 2, Sigmoid, rng),
			} {
				x := randBatch(rng, n, net.InDim())
				dy := randBatch(rng, n, net.OutDim())
				net.ForwardBatch(x, n) // warm-up grows arenas
				net.BackwardBatch(dy, n)
				allocs := testing.AllocsPerRun(10, func() {
					net.ForwardBatch(x, n)
					net.BackwardBatch(dy, n)
					net.ZeroGrad()
				})
				if allocs != 0 {
					t.Errorf("%s: batched step allocates %v times, want 0", name, allocs)
				}
			}
		})
	}
}

// TestBackwardScratchReused pins the documented Backward contract: the
// returned dL/dx slice is layer-owned scratch, not a fresh allocation.
func TestBackwardScratchReused(t *testing.T) {
	rng := sim.NewRNG(47)
	d := NewDense(4, 3, ReLU, rng)
	x := []float64{0.1, -0.2, 0.3, 0.4}
	dy := []float64{1, -1, 0.5}
	d.Forward(x)
	first := d.Backward(dy)
	d.Forward(x)
	second := d.Backward(dy)
	if &first[0] != &second[0] {
		t.Error("Backward allocated a fresh dx instead of reusing scratch")
	}
	allocs := testing.AllocsPerRun(10, func() {
		d.Forward(x)
		d.Backward(dy)
	})
	if allocs != 0 {
		t.Errorf("per-sample Forward/Backward allocates %v times, want 0", allocs)
	}
}

// kernelPath is one implementation of the batched Dense kernels.
type kernelPath struct {
	name string
	gemm bool
}

// kernelPaths lists the batched kernels this machine runs: the portable Go
// kernels always, the GEMM kernel where the CPU has AVX2.
func kernelPaths() []kernelPath {
	ps := []kernelPath{{"portable", false}}
	if haveAVX2 {
		ps = append(ps, kernelPath{"gemm", true})
	}
	return ps
}

// onPath switches the batched kernels to p until tb ends.
func onPath(tb testing.TB, p kernelPath) {
	prev := useGEMM
	useGEMM = p.gemm
	tb.Cleanup(func() { useGEMM = prev })
}

// BenchmarkDenseBatch times one ForwardBatch and one BackwardBatch of a
// 64-row minibatch at each layer shape of the DDPG actor and critic, on every
// kernel path.
func BenchmarkDenseBatch(b *testing.B) {
	const n = 64
	for _, p := range kernelPaths() {
		for _, s := range [][2]int{{8, 32}, {34, 24}, {24, 16}, {16, 2}, {16, 1}} {
			rng := sim.NewRNG(1)
			d := NewDense(s[0], s[1], ReLU, rng)
			x := randBatch(rng, n, d.In)
			dy := randBatch(rng, n, d.Out)
			name := fmt.Sprintf("%s/%dx%d", p.name, d.In, d.Out)
			b.Run(name+"/forward", func(b *testing.B) {
				onPath(b, p)
				for i := 0; i < b.N; i++ {
					d.ForwardBatch(x, n)
				}
			})
			b.Run(name+"/backward", func(b *testing.B) {
				onPath(b, p)
				d.ForwardBatch(x, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.BackwardBatch(dy, n)
				}
			})
		}
	}
}
