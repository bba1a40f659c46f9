package nn

import (
	"sync"

	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// FullyConnected is a dense layer over the flattened input (C·H·W
// features). Like a convolution it is split over output neurons ("output
// channels", §3.2): each processor computes a disjoint neuron range.
//
// It is computed as what it is (§2.1): a 1×1 Conv2D with InFeatures input
// planes of 1×1, run on the input viewed as (N, InFeatures, 1, 1). The
// conv holds every derived weight form and packed cache; QI mirrors its
// quantization info.
type FullyConnected struct {
	LayerName  string
	InFeatures int
	OutC       int
	Act        quant.Activation
	W          *tensor.Tensor // (OutC, InFeatures, 1, 1); nil in spec-only mode
	Bias       []float32
	QI         QuantInfo

	mu   sync.Mutex
	conv *Conv2D // built by dense
}

// Name implements Layer.
func (l *FullyConnected) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *FullyConnected) Kind() OpKind { return OpFC }

// Quant implements Layer.
func (l *FullyConnected) Quant() *QuantInfo { return &l.QI }

// OutShape implements Layer.
func (l *FullyConnected) OutShape(ins []tensor.Shape) (tensor.Shape, error) {
	if len(ins) != 1 {
		return tensor.Shape{}, shapeErr(l.LayerName, "want 1 input, got %d", len(ins))
	}
	in := ins[0]
	if in.C*in.H*in.W != l.InFeatures {
		return tensor.Shape{}, shapeErr(l.LayerName, "input %v has %d features, want %d", in, in.C*in.H*in.W, l.InFeatures)
	}
	return tensor.Shape{N: in.N, C: l.OutC, H: 1, W: 1}, nil
}

// Cost implements Layer.
func (l *FullyConnected) Cost(ins []tensor.Shape) Cost {
	if _, err := l.OutShape(ins); err != nil {
		return Cost{}
	}
	n := int64(ins[0].N)
	return Cost{
		MACs:     n * int64(l.OutC) * int64(l.InFeatures),
		InElems:  n * int64(l.InFeatures),
		WElems:   int64(l.OutC) * int64(l.InFeatures),
		OutElems: n * int64(l.OutC),
	}
}

// SplitChannels implements Layer.
func (l *FullyConnected) SplitChannels(ins []tensor.Shape) int { return l.OutC }

// SetQuant installs calibrated activation grids on the layer's
// convolution (see Conv2D.SetQuant).
func (l *FullyConnected) SetQuant(in, out quant.Params) {
	c := l.dense()
	c.SetQuant(in, out)
	l.QI = c.QI
}

// dense returns the 1×1 Conv2D the layer runs as. It is built on first
// use and rebuilt — and requantized, when calibrated — once W, Bias or Act
// has been replaced, so no forward runs stale weights. Split halves may
// ask for it concurrently, so it is built under a lock.
func (l *FullyConnected) dense() *Conv2D {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c := l.conv; c != nil && c.W == l.W && c.Act == l.Act && sameSlice(c.Bias, l.Bias) {
		return c
	}
	if l.W == nil {
		panic("nn: spec-only FullyConnected " + l.LayerName)
	}
	c := &Conv2D{
		LayerName: l.LayerName, InC: l.InFeatures, OutC: l.OutC,
		KH: 1, KW: 1, StrideH: 1, StrideW: 1, Act: l.Act, W: l.W, Bias: l.Bias,
	}
	if l.QI.Ready {
		c.SetQuant(l.QI.In, l.QI.Out)
		l.QI = c.QI
	}
	l.conv = c
	return c
}

// sameSlice reports whether a and b are the same slice of the same array.
func sameSlice(a, b []float32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// planes is an FC input shape seen as the convolution's input.
func (l *FullyConnected) planes(s tensor.Shape) tensor.Shape {
	return tensor.Shape{N: s.N, C: l.InFeatures, H: 1, W: 1}
}

// ForwardF32 computes output neurons [c0,c1) in single precision.
func (l *FullyConnected) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	in := *ins[0]
	in.Shape = l.planes(in.Shape)
	l.dense().ForwardF32([]*tensor.Tensor{&in}, out, c0, c1)
}

// ForwardQ computes output neurons [c0,c1) in the CPU integer pipeline.
func (l *FullyConnected) ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := *ins[0]
	in.Shape = l.planes(in.Shape)
	l.dense().ForwardQ([]*tensor.QTensor{&in}, out, c0, c1)
}

// ForwardF16 computes output neurons [c0,c1) in half precision.
func (l *FullyConnected) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int) {
	in := *ins[0]
	in.Shape = l.planes(in.Shape)
	l.dense().ForwardF16([]*tensor.HTensor{&in}, out, c0, c1)
}

// ForwardQViaF16 computes output neurons [c0,c1) on the GPU side of
// processor-friendly quantization.
func (l *FullyConnected) ForwardQViaF16(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := *ins[0]
	in.Shape = l.planes(in.Shape)
	l.dense().ForwardQViaF16([]*tensor.QTensor{&in}, out, c0, c1)
}
