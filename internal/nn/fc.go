package nn

import (
	"math"

	"mulayer/internal/f16"
	"mulayer/internal/gemm"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// FullyConnected is a dense layer over the flattened input (C·H·W
// features). Like a convolution it is split over output neurons ("output
// channels", §3.2): each processor computes a disjoint neuron range.
type FullyConnected struct {
	LayerName  string
	InFeatures int
	OutC       int
	Act        quant.Activation
	W          *tensor.Tensor // (OutC, InFeatures, 1, 1); nil in spec-only mode
	Bias       []float32
	QI         QuantInfo
	wq         *tensor.QTensor
	biasQ      []int32
	hwFromF    []f16.F16
	hwFromQ    []f16.F16

	// Packed-weight caches keyed by neuron range, as in Conv2D. FC
	// forwards are GEMVs, where packing the weights per call would cost
	// as much as the multiply itself — the cache is what makes the
	// tiled kernels pay off on FC-shaped work.
	packF32 gemm.PackCache[gemm.PackedAF32]
	packQ   gemm.PackCache[gemm.PackedAU8]
	packHF  gemm.PackCache[gemm.PackedAF16]
	packHQ  gemm.PackCache[gemm.PackedAF16]
}

// resetPacks drops the packed-weight caches after weight forms change.
func (l *FullyConnected) resetPacks() {
	l.packF32.Reset()
	l.packQ.Reset()
	l.packHF.Reset()
	l.packHQ.Reset()
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

// SetQuant installs calibrated activation grids and builds weight caches
// (see Conv2D.SetQuant).
func (l *FullyConnected) SetQuant(in, out quant.Params) {
	if l.W == nil {
		panic("nn: SetQuant on spec-only FullyConnected " + l.LayerName)
	}
	l.resetPacks()
	wmin, wmax := l.W.Range()
	wp := quant.ChooseParams(wmin, wmax)
	l.QI = QuantInfo{In: in, W: wp, Out: out, Ready: true}
	l.wq = tensor.Quantize(l.W, wp)
	l.biasQ = make([]int32, l.OutC)
	biasScale := float64(in.Scale) * float64(wp.Scale)
	for i := 0; i < l.OutC; i++ {
		var b float64
		if l.Bias != nil {
			b = float64(l.Bias[i])
		}
		l.biasQ[i] = int32(math.Round(b / biasScale))
	}
	l.hwFromF = f16.FromSlice32(l.W.Data)
	l.hwFromQ = make([]f16.F16, len(l.wq.Data))
	for i, q := range l.wq.Data {
		l.hwFromQ[i] = f16.FromFloat32(wp.Dequantize(q))
	}
}

// ForwardF32 computes output neurons [c0,c1) in single precision.
func (l *FullyConnected) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	k := l.InFeatures
	pw := l.packF32.Get(c0, c1, func() *gemm.PackedAF32 {
		return gemm.PackAF32(l.W.Data[c0*k:c1*k], c1-c0, k)
	})
	for n := 0; n < in.Shape.N; n++ {
		vec := in.Data[n*k : (n+1)*k]
		dst := out.Data[n*l.OutC+c0 : n*l.OutC+c1]
		gemm.F32Packed(pw, vec, dst, 1)
		for i := range dst {
			var b float32
			if l.Bias != nil {
				b = l.Bias[c0+i]
			}
			dst[i] = l.Act.Apply(dst[i] + b)
		}
	}
}

// ForwardQ computes output neurons [c0,c1) in the CPU integer pipeline.
func (l *FullyConnected) ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	if !l.QI.Ready {
		panic("nn: quantized forward before SetQuant on " + l.LayerName)
	}
	req := quant.NewRequantizer(in.Params, l.QI.W, out.Params, l.Act)
	k := l.InFeatures
	za, zw := int32(in.Params.ZeroPoint), int32(l.QI.W.ZeroPoint)
	pw := l.packQ.Get(c0, c1, func() *gemm.PackedAU8 {
		return gemm.PackAU8(l.wq.Data[c0*k:c1*k], c1-c0, k)
	})
	for n := 0; n < in.Shape.N; n++ {
		dst := out.Data[n*l.OutC+c0 : n*l.OutC+c1]
		gemm.ConvQ(pw, in.Data[n*k:(n+1)*k], gemm.MatrixGeom(k, 1), zw, za, func(r, _ int, acc []int32) {
			dst[r] = req.Requantize(acc[0] + l.biasQ[c0+r])
		})
	}
}

// ForwardF16 computes output neurons [c0,c1) in half precision; fromQ
// selects the weight cache as in Conv2D.ForwardF16.
func (l *FullyConnected) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int, fromQ bool) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	k := l.InFeatures
	pw := l.packedHalfWeights(fromQ, c0, c1, k)
	for n := 0; n < in.Shape.N; n++ {
		vec := in.Data[n*k : (n+1)*k]
		dst := out.Data[n*l.OutC+c0 : n*l.OutC+c1]
		gemm.F16GEMMPacked(pw, vec, dst, 1)
		for i := range dst {
			var b float32
			if l.Bias != nil {
				b = l.Bias[c0+i]
			}
			dst[i] = f16.FromFloat32(l.Act.Apply(dst[i].Float32() + b))
		}
	}
}

// ForwardQViaF16 is the GPU processor-friendly path: widen the input
// through the grid's binary16 table straight into the GEMV operand, run
// the half GEMV with dequantized-half weights, requantize.
func (l *FullyConnected) ForwardQViaF16(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	if !l.QI.Ready {
		panic("nn: quantized forward before SetQuant on " + l.LayerName)
	}
	lut := halfLUT(in.Params)
	k := l.InFeatures
	pw := l.packedHalfWeights(true, c0, c1, k)
	biasScale := float64(in.Params.Scale) * float64(l.QI.W.Scale)
	for n := 0; n < in.Shape.N; n++ {
		dst := out.Data[n*l.OutC+c0 : n*l.OutC+c1]
		gemm.ConvQViaF16(pw, in.Data[n*k:(n+1)*k], gemm.MatrixGeom(k, 1), &lut, in.Params.ZeroPoint, func(r, _ int, acc []float32) {
			b := f16.FromFloat32(float32(float64(l.biasQ[c0+r]) * biasScale))
			v := f16.Add(f16.FromFloat32(acc[0]), b)
			dst[r] = out.Params.Quantize(l.Act.Apply(v.Float32()))
		})
	}
}

// packedHalfWeights returns the cached packed binary16 weight panels for
// neurons [c0,c1); fromQ selects the weight set as in halfWeights.
func (l *FullyConnected) packedHalfWeights(fromQ bool, c0, c1, k int) *gemm.PackedAF16 {
	w := l.halfWeights(fromQ)
	cache := &l.packHF
	if fromQ {
		cache = &l.packHQ
	}
	return cache.Get(c0, c1, func() *gemm.PackedAF16 {
		return gemm.PackAF16(w[c0*k:c1*k], c1-c0, k)
	})
}

func (l *FullyConnected) halfWeights(fromQ bool) []f16.F16 {
	if fromQ {
		if !l.QI.Ready {
			panic("nn: quantized forward before SetQuant on " + l.LayerName)
		}
		return l.hwFromQ
	}
	if l.hwFromF == nil {
		if l.W == nil {
			panic("nn: forward on spec-only FullyConnected " + l.LayerName)
		}
		l.hwFromF = f16.FromSlice32(l.W.Data)
	}
	return l.hwFromF
}
