package nn

import "mulayer/internal/tensor"

// Concat joins its inputs along the channel dimension, the fan-in of
// Inception and Fire modules (Figure 11). It performs no arithmetic —
// only data movement — so μLayer leaves it on a single processor
// (SplitChannels reports 0); under branch distribution the concat is the
// join node where the processors synchronize.
type Concat struct {
	LayerName string
	QI        QuantInfo
}

// Name implements Layer.
func (l *Concat) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Concat) Kind() OpKind { return OpConcat }

// Quant implements Layer.
func (l *Concat) Quant() *QuantInfo { return &l.QI }

// OutShape implements Layer.
func (l *Concat) OutShape(ins []tensor.Shape) (tensor.Shape, error) {
	if len(ins) < 1 {
		return tensor.Shape{}, shapeErr(l.LayerName, "want at least 1 input")
	}
	out := ins[0]
	for _, in := range ins[1:] {
		if in.N != out.N || in.H != out.H || in.W != out.W {
			return tensor.Shape{}, shapeErr(l.LayerName, "spatial/batch mismatch: %v vs %v", ins[0], in)
		}
		out.C += in.C
	}
	return out, nil
}

// Cost implements Layer: pure data movement.
func (l *Concat) Cost(ins []tensor.Shape) Cost {
	var e int64
	for _, in := range ins {
		e += int64(in.Elems())
	}
	return Cost{InElems: e, OutElems: e}
}

// SplitChannels implements Layer: never split.
func (l *Concat) SplitChannels(ins []tensor.Shape) int { return 0 }

// ForwardF32 stacks the inputs along C.
func (l *Concat) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	off := 0
	for _, in := range ins {
		for n := 0; n < out.Shape.N; n++ {
			slo, shi := in.Shape.ChannelSpan(n, 0, in.Shape.C)
			dlo, _ := out.Shape.ChannelSpan(n, off, off+in.Shape.C)
			copy(out.Data[dlo:dlo+(shi-slo)], in.Data[slo:shi])
		}
		off += in.Shape.C
	}
}

// ForwardQ stacks quantized inputs. Inputs whose parameters match the
// output are copied byte-for-byte; mismatched inputs are requantized onto
// the output grid (the runtime analogue of TFLite's concat rescaling).
// The requantized code depends only on the input byte, so each
// mismatched input is mapped through a 256-entry table built once per
// call.
func (l *Concat) ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	off := 0
	for _, in := range ins {
		var lut *[256]uint8
		if in.Params != out.Params {
			lut = new([256]uint8)
			for q := range lut {
				lut[q] = out.Params.Quantize(in.Params.Dequantize(uint8(q)))
			}
		}
		for n := 0; n < out.Shape.N; n++ {
			slo, shi := in.Shape.ChannelSpan(n, 0, in.Shape.C)
			dlo, _ := out.Shape.ChannelSpan(n, off, off+in.Shape.C)
			dst := out.Data[dlo : dlo+(shi-slo)]
			if lut == nil {
				copy(dst, in.Data[slo:shi])
				continue
			}
			for i, v := range in.Data[slo:shi] {
				dst[i] = lut[v]
			}
		}
		off += in.Shape.C
	}
}

// ForwardF16 stacks half-precision inputs.
func (l *Concat) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int) {
	off := 0
	for _, in := range ins {
		for n := 0; n < out.Shape.N; n++ {
			slo, shi := in.Shape.ChannelSpan(n, 0, in.Shape.C)
			dlo, _ := out.Shape.ChannelSpan(n, off, off+in.Shape.C)
			copy(out.Data[dlo:dlo+(shi-slo)], in.Data[slo:shi])
		}
		off += in.Shape.C
	}
}
