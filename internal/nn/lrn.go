package nn

import (
	"math"

	"mulayer/internal/f16"
	"mulayer/internal/tensor"
)

// LRN is AlexNet-style local response normalization across channels:
//
//	out[c] = in[c] / (K + Alpha/Size · Σ_{c'∈window(c)} in[c']²)^Beta
//
// where the window spans Size channels centered on c. The layer is
// splittable over output channels: computing channel c reads neighboring
// input channels, but the input is shared between processors under the
// channel-wise distribution, so reads outside the assigned range are free
// of conflicts.
type LRN struct {
	LayerName string
	Size      int // cross-channel window (odd)
	K         float32
	Alpha     float32
	Beta      float32
	QI        QuantInfo
}

// Name implements Layer.
func (l *LRN) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *LRN) Kind() OpKind { return OpLRN }

// Quant implements Layer.
func (l *LRN) Quant() *QuantInfo { return &l.QI }

// OutShape implements Layer.
func (l *LRN) OutShape(ins []tensor.Shape) (tensor.Shape, error) {
	if len(ins) != 1 {
		return tensor.Shape{}, shapeErr(l.LayerName, "want 1 input, got %d", len(ins))
	}
	if l.Size <= 0 || l.Size%2 == 0 {
		return tensor.Shape{}, shapeErr(l.LayerName, "window size %d must be odd and positive", l.Size)
	}
	return ins[0], nil
}

// Cost implements Layer: one window sum plus a power per element.
func (l *LRN) Cost(ins []tensor.Shape) Cost {
	if len(ins) != 1 {
		return Cost{}
	}
	e := int64(ins[0].Elems())
	return Cost{MACs: e * int64(l.Size+4), InElems: e, OutElems: e}
}

// SplitChannels implements Layer.
func (l *LRN) SplitChannels(ins []tensor.Shape) int {
	if len(ins) != 1 {
		return 0
	}
	return ins[0].C
}

// normalize computes the LRN output for one position given a channel
// reader.
func (l *LRN) normalize(at func(c int) float32, c, maxC int) float32 {
	half := l.Size / 2
	var sum float64
	for cc := c - half; cc <= c+half; cc++ {
		if cc < 0 || cc >= maxC {
			continue
		}
		v := float64(at(cc))
		sum += float64(v * v) // the conversions keep products unfused (DESIGN §8)
	}
	denom := math.Pow(float64(l.K)+float64(float64(l.Alpha)/float64(l.Size)*sum), float64(l.Beta))
	return float32(float64(at(c)) / denom)
}

// ForwardF32 normalizes channels [c0,c1).
func (l *LRN) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, in.Shape.C, l.LayerName)
	s := in.Shape
	for n := 0; n < s.N; n++ {
		for y := 0; y < s.H; y++ {
			for x := 0; x < s.W; x++ {
				at := func(c int) float32 { return in.At(n, c, y, x) }
				for c := c0; c < c1; c++ {
					out.Set(n, c, y, x, l.normalize(at, c, s.C))
				}
			}
		}
	}
}

// ForwardQ dequantizes the window, normalizes in float, and requantizes —
// LRN has no efficient pure-integer form and contributes negligibly to
// total work (AlexNet only).
func (l *LRN) ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, in.Shape.C, l.LayerName)
	s := in.Shape
	for n := 0; n < s.N; n++ {
		for y := 0; y < s.H; y++ {
			for x := 0; x < s.W; x++ {
				at := func(c int) float32 { return in.Params.Dequantize(in.At(n, c, y, x)) }
				for c := c0; c < c1; c++ {
					out.Set(n, c, y, x, out.Params.Quantize(l.normalize(at, c, s.C)))
				}
			}
		}
	}
}

// ForwardF16 normalizes in float32 from half inputs and rounds back.
func (l *LRN) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, in.Shape.C, l.LayerName)
	s := in.Shape
	for n := 0; n < s.N; n++ {
		for y := 0; y < s.H; y++ {
			for x := 0; x < s.W; x++ {
				at := func(c int) float32 { return in.At(n, c, y, x).Float32() }
				for c := c0; c < c1; c++ {
					out.Set(n, c, y, x, f16.FromFloat32(l.normalize(at, c, s.C)))
				}
			}
		}
	}
}
