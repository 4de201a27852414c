package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/deeppower/deeppower/internal/sim"
)

// MLP is a stack of Dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a network with the given layer sizes, hidden activation for
// every layer but the last, and out activation on the final layer.
// sizes must contain at least [in, out].
func NewMLP(sizes []int, hidden, out Activation, rng *sim.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i+2 == len(sizes) {
			act = out
		}
		m.Layers = append(m.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// Forward evaluates the network. The returned slice aliases the last
// layer's buffer; copy it to retain across calls.
func (m *MLP) Forward(x []float64) []float64 {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dL/dy of the most recent Forward through the network,
// accumulating parameter gradients, and returns dL/dinput.
func (m *MLP) Backward(dy []float64) []float64 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].Backward(dy)
	}
	return dy
}

// ForwardBatch evaluates the network on n row-major [n×InDim] inputs. The
// returned [n×OutDim] slice aliases the last layer's batch buffer.
func (m *MLP) ForwardBatch(x []float64, n int) []float64 {
	for _, l := range m.Layers {
		x = l.ForwardBatch(x, n)
	}
	return x
}

// BackwardBatch propagates dL/dy of the most recent ForwardBatch ([n×OutDim],
// row-major) through the network, accumulating parameter gradients, and
// returns dL/dinput as [n×InDim]. Bit-identical to n sequential
// Forward/Backward pairs (see Dense.BackwardBatch).
func (m *MLP) BackwardBatch(dy []float64, n int) []float64 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		dy = m.Layers[i].BackwardBatch(dy, n)
	}
	return dy
}

// ZeroGrad clears gradients on every layer.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.ZeroGrad()
	}
}

// NumParams returns the total number of trainable parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += l.NumParams()
	}
	return n
}

// InDim and OutDim report the network's input and output widths.
func (m *MLP) InDim() int { return m.Layers[0].In }

// OutDim reports the network's output width.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Clone deep-copies the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{}
	for _, l := range m.Layers {
		c.Layers = append(c.Layers, l.Clone())
	}
	return c
}

// CopyFrom overwrites weights with src's (hard target update).
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: CopyFrom layer count mismatch")
	}
	for i, l := range m.Layers {
		l.CopyFrom(src.Layers[i])
	}
}

// SoftUpdateFrom blends src into the network: θ ← τ·θ_src + (1-τ)·θ.
func (m *MLP) SoftUpdateFrom(src *MLP, tau float64) {
	if len(m.Layers) != len(src.Layers) {
		panic("nn: SoftUpdateFrom layer count mismatch")
	}
	for i, l := range m.Layers {
		l.SoftUpdateFrom(src.Layers[i], tau)
	}
}

// snapshot is the serialized form of a network.
type snapshot struct {
	Layers []layerSnapshot `json:"layers"`
}

type layerSnapshot struct {
	In  int        `json:"in"`
	Out int        `json:"out"`
	Act Activation `json:"act"`
	W   []float64  `json:"w"`
	B   []float64  `json:"b"`
}

// Save writes the network weights as JSON.
func (m *MLP) Save(w io.Writer) error {
	var s snapshot
	for _, l := range m.Layers {
		s.Layers = append(s.Layers, layerSnapshot{
			In: l.In, Out: l.Out, Act: l.Act, W: l.W, B: l.B,
		})
	}
	return json.NewEncoder(w).Encode(s)
}

// restoreLayer validates a layer snapshot — shape, activation code, weight
// array lengths, chaining against the previous layer's output width
// (wantIn > 0), and finiteness — and builds the Dense. JSON NaN/Inf cannot
// arrive through the decoder, but a hand-edited or corrupted snapshot could
// carry huge-but-finite garbage; the finiteness sweep still guards values
// injected as strings elsewhere and keeps the JSON path's contract identical
// to the binary path's.
func restoreLayer(ls layerSnapshot, wantIn int) (*Dense, error) {
	if ls.In <= 0 || ls.Out <= 0 {
		return nil, fmt.Errorf("nn: malformed layer shape %d→%d in snapshot", ls.In, ls.Out)
	}
	if wantIn > 0 && ls.In != wantIn {
		return nil, fmt.Errorf("nn: layer input %d does not chain from previous output %d", ls.In, wantIn)
	}
	if !validActivation(ls.Act) {
		return nil, fmt.Errorf("nn: unknown activation code %d in snapshot", int(ls.Act))
	}
	if !weightsFit(ls.In, ls.Out, len(ls.W), len(ls.B)) {
		return nil, fmt.Errorf("nn: layer %d→%d carries %d weights and %d biases",
			ls.In, ls.Out, len(ls.W), len(ls.B))
	}
	for _, v := range ls.W {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("nn: non-finite weight in %d→%d layer", ls.In, ls.Out)
		}
	}
	for _, v := range ls.B {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("nn: non-finite bias in %d→%d layer", ls.In, ls.Out)
		}
	}
	return &Dense{
		In: ls.In, Out: ls.Out, Act: ls.Act,
		W: ls.W, B: ls.B,
		GW: make([]float64, len(ls.W)),
		GB: make([]float64, len(ls.B)),
		x:  make([]float64, ls.In),
		y:  make([]float64, ls.Out),
		dx: make([]float64, ls.In),
	}, nil
}

// Load reads a network saved by Save. Malformed input — truncated, empty,
// mis-shaped, unknown activations, or non-finite weights — yields a
// descriptive error; Load never panics.
func Load(r io.Reader) (*MLP, error) {
	var s snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if len(s.Layers) == 0 {
		return nil, fmt.Errorf("nn: empty network snapshot")
	}
	m := &MLP{}
	prev := 0
	for i, ls := range s.Layers {
		d, err := restoreLayer(ls, prev)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		m.Layers = append(m.Layers, d)
		prev = d.Out
	}
	return m, nil
}

// MSE returns the mean squared error between pred and target and writes
// dL/dpred into grad (all three must share a length).
func MSE(pred, target, grad []float64) float64 {
	if len(pred) != len(target) || len(grad) != len(pred) {
		panic("nn: MSE length mismatch")
	}
	loss := 0.0
	n := float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d / n
		grad[i] = 2 * d / n
	}
	return loss
}
