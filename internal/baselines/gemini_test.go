package baselines

import (
	"fmt"
	"math"
	"testing"

	"github.com/deeppower/deeppower/internal/nn"
	"github.com/deeppower/deeppower/internal/nn/nntest"
)

// trainGeminiPerSample is the per-sample training loop FitGemini ran before
// it moved onto the batched kernels, kept as the reference trainGemini must
// reproduce bit for bit.
func trainGeminiPerSample(m *nn.MLP, opt *nn.Adam, X, y []float64, epochs int) {
	d := m.InDim()
	grad := make([]float64, 1)
	for epoch := 0; epoch < epochs; epoch++ {
		for bi := range y {
			pred := m.Forward(X[bi*d : (bi+1)*d])
			nn.MSE(pred, []float64{y[bi]}, grad)
			m.Backward(grad)
			if bi%32 == 31 {
				opt.Step()
			}
		}
		opt.Step()
	}
}

// TestFitGeminiBatchedBitIdentity: the batched fit must produce exactly the
// weights, biases and residual pad of the per-sample reference. The sample
// counts cover a whole number of batches (4000, whose epochs end with a
// zero-gradient step) and trailing partial batches (1000, 45).
func TestFitGeminiBatchedBitIdentity(t *testing.T) {
	all, err := CollectServiceData(smallXapian(), 0.5, 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4000 {
		t.Fatalf("collected %d samples, want 4000", len(all))
	}
	for _, n := range []int{4000, 1000, 45} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			cfg := GeminiTrainConfig{Seed: 3}
			want, err := fitGemini(all[:n], cfg, trainGeminiPerSample)
			if err != nil {
				t.Fatal(err)
			}
			nntest.EachKernelPath(t, func(t *testing.T) {
				got, err := FitGemini(all[:n], cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Pad != want.Pad {
					t.Errorf("Pad %v, per-sample reference %v", got.Pad, want.Pad)
				}
				for li, l := range got.model.Layers {
					ref := want.model.Layers[li]
					bitEqual(t, fmt.Sprintf("layer %d W", li), l.W, ref.W)
					bitEqual(t, fmt.Sprintf("layer %d B", li), l.B, ref.B)
				}
			})
		})
	}
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, per-sample reference %v", what, i, got[i], want[i])
		}
	}
}
