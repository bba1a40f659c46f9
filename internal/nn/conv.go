package nn

import (
	"math"

	"mulayer/internal/f16"
	"mulayer/internal/gemm"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// Conv2D is a 2-D convolutional layer (OIHW filters, NCHW activations)
// with optional grouping (Groups=InC gives a depthwise convolution) and a
// fused activation. A fully-connected layer is expressible as a 1×1
// convolution over a 1×1 spatial extent (§2.1), but the dedicated FC layer
// in fc.go is cheaper for flattened inputs.
//
// The layer carries float32 master weights plus caches for the other
// pipelines: QUInt8 weights and int32 bias for the CPU integer path, and
// two binary16 weight sets — one rounded from the F32 master (pure-F16
// execution) and one dequantized from the QUInt8 weights (the GPU path of
// processor-friendly quantization, which uploads filters as dequantized
// halves, §6).
type Conv2D struct {
	LayerName        string
	InC, OutC        int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int
	Act              quant.Activation

	// PerChannelW selects per-output-channel symmetric weight grids
	// instead of one per-tensor grid — the standard refinement for
	// depthwise convolutions (an extension beyond the paper's gemmlowp
	// scheme). Weights then share zero point 128 and differ only in scale,
	// so the integer GEMM is unchanged and only the requantization step
	// becomes per-channel.
	PerChannelW bool

	W    *tensor.Tensor // (OutC, InC/Groups, KH, KW); nil in spec-only mode
	Bias []float32      // length OutC, or nil

	QI QuantInfo

	wq      *tensor.QTensor
	biasQ   []int32
	reqs    []quant.Requantizer // per-channel output stages (PerChannelW)
	hwFromF []f16.F16
	hwFromQ []f16.F16

	// Packed-weight caches, one per weight form, keyed by the output
	// channel range [c0,c1) a split plan assigns to a processor. Filters
	// are reused on every request, so the im2col GEMMs run against
	// panels packed once per (range, form) and shared across calls —
	// including concurrent CPU/GPU halves of a split layer.
	packF32 gemm.PackCache[gemm.PackedAF32]
	packQ   gemm.PackCache[gemm.PackedAU8]
	packHF  gemm.PackCache[gemm.PackedAF16]
	packHQ  gemm.PackCache[gemm.PackedAF16]
}

// resetPacks drops the packed-weight caches after the underlying weight
// forms change (SetQuant rebuilds the QUInt8 and binary16 sets).
func (l *Conv2D) resetPacks() {
	l.packF32.Reset()
	l.packQ.Reset()
	l.packHF.Reset()
	l.packHQ.Reset()
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Conv2D) Kind() OpKind {
	if l.Groups > 1 && l.Groups == l.InC {
		return OpDepthwise
	}
	return OpConv
}

// Quant implements Layer.
func (l *Conv2D) Quant() *QuantInfo { return &l.QI }

func (l *Conv2D) groups() int {
	if l.Groups <= 0 {
		return 1
	}
	return l.Groups
}

func (l *Conv2D) geom(in tensor.Shape) gemm.ConvGeom {
	return gemm.ConvGeom{
		InC: l.InC, InH: in.H, InW: in.W,
		KH: l.KH, KW: l.KW,
		StrideH: l.StrideH, StrideW: l.StrideW,
		PadH: l.PadH, PadW: l.PadW,
	}
}

// OutShape implements Layer.
func (l *Conv2D) OutShape(ins []tensor.Shape) (tensor.Shape, error) {
	if len(ins) != 1 {
		return tensor.Shape{}, shapeErr(l.LayerName, "want 1 input, got %d", len(ins))
	}
	in := ins[0]
	if in.C != l.InC {
		return tensor.Shape{}, shapeErr(l.LayerName, "input channels %d != layer InC %d", in.C, l.InC)
	}
	g := l.geom(in)
	oh, ow := g.OutH(), g.OutW()
	if oh <= 0 || ow <= 0 {
		return tensor.Shape{}, shapeErr(l.LayerName, "non-positive output %dx%d for input %v", oh, ow, in)
	}
	if l.OutC%l.groups() != 0 || l.InC%l.groups() != 0 {
		return tensor.Shape{}, shapeErr(l.LayerName, "channels (%d in, %d out) not divisible by %d groups", l.InC, l.OutC, l.groups())
	}
	return tensor.Shape{N: in.N, C: l.OutC, H: oh, W: ow}, nil
}

// Cost implements Layer.
func (l *Conv2D) Cost(ins []tensor.Shape) Cost {
	out, err := l.OutShape(ins)
	if err != nil {
		return Cost{}
	}
	in := ins[0]
	icg := int64(l.InC / l.groups())
	perOut := icg * int64(l.KH) * int64(l.KW)
	return Cost{
		MACs:     int64(out.Elems()) * perOut,
		InElems:  int64(in.Elems()),
		WElems:   int64(l.OutC) * perOut,
		OutElems: int64(out.Elems()),
	}
}

// SplitChannels implements Layer. Convolutions split over output channels.
func (l *Conv2D) SplitChannels(ins []tensor.Shape) int { return l.OutC }

// SetQuant installs the calibrated input/output activation grids, derives
// the weight grid from the master weights, and builds the cached QUInt8 /
// binary16 weight forms. Must be called before any quantized or
// processor-friendly forward.
func (l *Conv2D) SetQuant(in, out quant.Params) {
	if l.W == nil {
		panic("nn: SetQuant on spec-only Conv2D " + l.LayerName)
	}
	l.resetPacks()
	if l.PerChannelW {
		l.setQuantPerChannel(in, out)
		return
	}
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

// setQuantPerChannel installs symmetric per-output-channel weight grids:
// every channel shares zero point 128 (so the integer GEMM's single
// weight zero point still holds) with its own scale, and the output stage
// requantizes with a per-channel multiplier.
func (l *Conv2D) setQuantPerChannel(in, out quant.Params) {
	rows := l.W.Shape.C * l.W.Shape.H * l.W.Shape.W
	perCh := make([]quant.Params, l.OutC)
	l.wq = tensor.NewQ(l.W.Shape, quant.Params{Scale: 1, ZeroPoint: 128})
	l.biasQ = make([]int32, l.OutC)
	l.reqs = make([]quant.Requantizer, l.OutC)
	l.hwFromQ = make([]f16.F16, len(l.W.Data))
	for oc := 0; oc < l.OutC; oc++ {
		row := l.W.Data[oc*rows : (oc+1)*rows]
		var amax float64
		for _, v := range row {
			if a := math.Abs(float64(v)); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			amax = 1.0 / 127
		}
		wp := quant.Params{Scale: float32(amax / 127), ZeroPoint: 128}
		perCh[oc] = wp
		for i, v := range row {
			l.wq.Data[oc*rows+i] = wp.Quantize(v)
			l.hwFromQ[oc*rows+i] = f16.FromFloat32(wp.Dequantize(l.wq.Data[oc*rows+i]))
		}
		var b float64
		if l.Bias != nil {
			b = float64(l.Bias[oc])
		}
		l.biasQ[oc] = int32(math.Round(b / (float64(in.Scale) * float64(wp.Scale))))
		l.reqs[oc] = quant.NewRequantizer(in, wp, out, l.Act)
	}
	l.QI = QuantInfo{In: in, W: perCh[0], Out: out, WPerChannel: perCh, Ready: true}
	l.wq.Params = quant.Params{Scale: perCh[0].Scale, ZeroPoint: 128}
	l.hwFromF = f16.FromSlice32(l.W.Data)
}

// requantizerFor returns the output stage for one output channel.
func (l *Conv2D) requantizerFor(in quant.Params, outP quant.Params, oc int, fallback *quant.Requantizer) quant.Requantizer {
	if l.QI.PerChannel() {
		return l.reqs[oc]
	}
	return *fallback
}

// ForwardF32 computes output channels [c0,c1) of the F32 pipeline.
func (l *Conv2D) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	g := l.geom(in.Shape)
	oh, ow := g.OutH(), g.OutW()
	plane := oh * ow
	if l.groups() == 1 {
		k := g.PatchRows()
		pw := l.packF32.Get(c0, c1, func() *gemm.PackedAF32 {
			return gemm.PackAF32(l.W.Data[c0*k:c1*k], c1-c0, k)
		})
		patches := make([]float32, k*g.PatchCols())
		for n := 0; n < in.Shape.N; n++ {
			gemm.Im2ColF32(batchElem(in.Data, in.Shape, n), g, patches)
			lo, _ := out.Shape.ChannelSpan(n, c0, c1)
			gemm.F32Packed(pw, patches, out.Data[lo:lo+(c1-c0)*plane], plane)
		}
	} else {
		l.directF32(in, out, c0, c1)
	}
	// Bias + activation epilogue.
	for n := 0; n < out.Shape.N; n++ {
		for oc := c0; oc < c1; oc++ {
			var b float32
			if l.Bias != nil {
				b = l.Bias[oc]
			}
			lo, hi := out.Shape.ChannelSpan(n, oc, oc+1)
			for i := lo; i < hi; i++ {
				out.Data[i] = l.Act.Apply(out.Data[i] + b)
			}
		}
	}
}

// directF32 handles grouped/depthwise convolutions with straight loops.
func (l *Conv2D) directF32(in *tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	gr := l.groups()
	icg := l.InC / gr
	ocg := l.OutC / gr
	oh, ow := out.Shape.H, out.Shape.W
	for n := 0; n < in.Shape.N; n++ {
		for oc := c0; oc < c1; oc++ {
			gidx := oc / ocg
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					var s float32
					for ic := 0; ic < icg; ic++ {
						cin := gidx*icg + ic
						for kh := 0; kh < l.KH; kh++ {
							sy := y*l.StrideH - l.PadH + kh
							if sy < 0 || sy >= in.Shape.H {
								continue
							}
							for kw := 0; kw < l.KW; kw++ {
								sx := x*l.StrideW - l.PadW + kw
								if sx < 0 || sx >= in.Shape.W {
									continue
								}
								s += l.W.Data[((oc*icg+ic)*l.KH+kh)*l.KW+kw] * in.At(n, cin, sy, sx)
							}
						}
					}
					out.Set(n, oc, y, x, s)
				}
			}
		}
	}
}

// ForwardQ computes output channels [c0,c1) of the CPU integer pipeline:
// uint8 operands, int32 accumulation, fixed-point requantization with the
// fused activation clamp — the gemmlowp path of processor-friendly
// quantization (Figure 9a). Dense convolutions pack the patch operand
// straight from the input and requantize each accumulator strip as the
// kernel finishes it.
func (l *Conv2D) ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	l.mustQuantReady()
	req := quant.NewRequantizer(in.Params, l.QI.W, out.Params, l.Act)
	if l.groups() != 1 {
		l.directQ(in, out, c0, c1, req)
		return
	}
	g := l.geom(in.Shape)
	k, plane := g.PatchRows(), g.PatchCols()
	pw := l.packQ.Get(c0, c1, func() *gemm.PackedAU8 {
		return gemm.PackAU8(l.wq.Data[c0*k:c1*k], c1-c0, k)
	})
	za, zw := int32(in.Params.ZeroPoint), int32(l.QI.W.ZeroPoint)
	for n := 0; n < in.Shape.N; n++ {
		lo, _ := out.Shape.ChannelSpan(n, c0, c1)
		gemm.ConvQ(pw, batchElem(in.Data, in.Shape, n), g, zw, za, func(r, j0 int, acc []int32) {
			rq := l.requantizerFor(in.Params, out.Params, c0+r, &req)
			bq := l.biasQ[c0+r]
			dst := out.Data[lo+r*plane+j0:]
			for i, a := range acc {
				dst[i] = rq.Requantize(a + bq)
			}
		})
	}
}

// batchElem returns batch element n of an NCHW tensor's data.
func batchElem[T any](data []T, s tensor.Shape, n int) []T {
	size := s.C * s.H * s.W
	return data[n*size : (n+1)*size]
}

// directQ handles grouped/depthwise quantized convolutions.
func (l *Conv2D) directQ(in *tensor.QTensor, out *tensor.QTensor, c0, c1 int, req quant.Requantizer) {
	gr := l.groups()
	icg := l.InC / gr
	ocg := l.OutC / gr
	oh, ow := out.Shape.H, out.Shape.W
	za, zw := int32(in.Params.ZeroPoint), int32(l.QI.W.ZeroPoint)
	for n := 0; n < in.Shape.N; n++ {
		for oc := c0; oc < c1; oc++ {
			gidx := oc / ocg
			for y := 0; y < oh; y++ {
				rq := l.requantizerFor(in.Params, out.Params, oc, &req)
				for x := 0; x < ow; x++ {
					acc := l.biasQ[oc]
					for ic := 0; ic < icg; ic++ {
						cin := gidx*icg + ic
						for kh := 0; kh < l.KH; kh++ {
							sy := y*l.StrideH - l.PadH + kh
							for kw := 0; kw < l.KW; kw++ {
								sx := x*l.StrideW - l.PadW + kw
								var iv int32
								if sy < 0 || sy >= in.Shape.H || sx < 0 || sx >= in.Shape.W {
									iv = 0 // zero-point padding: (zp - zp) = 0
								} else {
									iv = int32(in.At(n, cin, sy, sx)) - za
								}
								wv := int32(l.wq.Data[((oc*icg+ic)*l.KH+kh)*l.KW+kw]) - zw
								acc += wv * iv
							}
						}
					}
					out.Set(n, oc, y, x, rq.Requantize(acc))
				}
			}
		}
	}
}

// ForwardF16 computes output channels [c0,c1) in half precision. fromQ
// selects the weight set: false uses halves rounded from the F32 master
// (pure-F16 execution, Figure 8), true uses halves dequantized from the
// QUInt8 weights (the GPU side of processor-friendly quantization).
func (l *Conv2D) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int, fromQ bool) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	w := l.halfWeights(fromQ)
	g := l.geom(in.Shape)
	oh, ow := g.OutH(), g.OutW()
	plane := oh * ow
	if l.groups() == 1 {
		k := g.PatchRows()
		pw := l.packedHalfWeights(fromQ, c0, c1, k)
		patches := make([]f16.F16, k*g.PatchCols())
		for n := 0; n < in.Shape.N; n++ {
			gemm.Im2ColF16(batchElem(in.Data, in.Shape, n), g, patches)
			lo, _ := out.Shape.ChannelSpan(n, c0, c1)
			gemm.F16GEMMPacked(pw, patches, out.Data[lo:lo+(c1-c0)*plane], plane)
		}
	} else {
		l.directHalf(in.Shape, out.Shape, c0, c1, w, func(i int) float32 { return in.Data[i].Float32() }, func(i, _ int, s float32) {
			out.Data[i] = f16.FromFloat32(s)
		})
	}
	for n := 0; n < out.Shape.N; n++ {
		for oc := c0; oc < c1; oc++ {
			var b float32
			if l.Bias != nil {
				b = l.Bias[oc]
			}
			lo, hi := out.Shape.ChannelSpan(n, oc, oc+1)
			for i := lo; i < hi; i++ {
				out.Data[i] = f16.FromFloat32(l.Act.Apply(out.Data[i].Float32() + b))
			}
		}
	}
}

// packedHalfWeights returns the cached packed binary16 weight panels for
// output channels [c0,c1); fromQ selects the weight set as in
// halfWeights.
func (l *Conv2D) packedHalfWeights(fromQ bool, c0, c1, k int) *gemm.PackedAF16 {
	w := l.halfWeights(fromQ)
	cache := &l.packHF
	if fromQ {
		cache = &l.packHQ
	}
	return cache.Get(c0, c1, func() *gemm.PackedAF16 {
		return gemm.PackAF16(w[c0*k:c1*k], c1-c0, k)
	})
}

// directHalf handles grouped/depthwise half-precision convolutions with
// straight loops, accumulating in float32 like the GEMM kernel. at widens
// flat input element i; emit receives flat output index i of channel oc
// with its float32 sum, which the caller rounds to binary16.
func (l *Conv2D) directHalf(inS, outS tensor.Shape, c0, c1 int, w []f16.F16, at func(i int) float32, emit func(i, oc int, s float32)) {
	gr := l.groups()
	icg := l.InC / gr
	ocg := l.OutC / gr
	for n := 0; n < inS.N; n++ {
		for oc := c0; oc < c1; oc++ {
			gidx := oc / ocg
			for y := 0; y < outS.H; y++ {
				for x := 0; x < outS.W; x++ {
					var s float32
					for ic := 0; ic < icg; ic++ {
						cin := gidx*icg + ic
						for kh := 0; kh < l.KH; kh++ {
							sy := y*l.StrideH - l.PadH + kh
							if sy < 0 || sy >= inS.H {
								continue
							}
							for kw := 0; kw < l.KW; kw++ {
								sx := x*l.StrideW - l.PadW + kw
								if sx < 0 || sx >= inS.W {
									continue
								}
								s += w[((oc*icg+ic)*l.KH+kh)*l.KW+kw].Float32() * at(inS.Index(n, cin, sy, sx))
							}
						}
					}
					emit(outS.Index(n, oc, y, x), oc, s)
				}
			}
		}
	}
}

// ForwardQViaF16 is the GPU side of processor-friendly quantization
// (Figure 9b): load QUInt8 activations, dequantize on the fly to binary16,
// convolve in half precision against the dequantized-half weights, and
// requantize the result back onto the QUInt8 output grid. The
// dequantization is a 256-entry table (halfLUT) applied while the kernel
// packs its operand, and the epilogue — round to half, add the half bias,
// activate, quantize — runs on each strip as the kernel finishes it.
func (l *Conv2D) ForwardQViaF16(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	l.mustQuantReady()
	lut := halfLUT(in.Params)
	// The bias is the dequantized integer bias, matching what the CPU
	// path adds, rounded to half.
	bias := func(oc int) f16.F16 {
		ws := float64(l.QI.W.Scale)
		if l.QI.PerChannel() {
			ws = float64(l.QI.WPerChannel[oc].Scale)
		}
		return f16.FromFloat32(float32(float64(l.biasQ[oc]) * float64(in.Params.Scale) * ws))
	}
	quantizeHalf := func(s float32, b f16.F16) uint8 {
		return out.Params.Quantize(l.Act.Apply(f16.Add(f16.FromFloat32(s), b).Float32()))
	}
	if l.groups() != 1 {
		l.directHalf(in.Shape, out.Shape, c0, c1, l.halfWeights(true), func(i int) float32 { return lut[in.Data[i]] }, func(i, oc int, s float32) {
			out.Data[i] = quantizeHalf(s, bias(oc))
		})
		return
	}
	g := l.geom(in.Shape)
	plane := g.PatchCols()
	pw := l.packedHalfWeights(true, c0, c1, g.PatchRows())
	for n := 0; n < in.Shape.N; n++ {
		lo, _ := out.Shape.ChannelSpan(n, c0, c1)
		gemm.ConvQViaF16(pw, batchElem(in.Data, in.Shape, n), g, &lut, in.Params.ZeroPoint, func(r, j0 int, acc []float32) {
			b := bias(c0 + r)
			dst := out.Data[lo+r*plane+j0:]
			for i, s := range acc {
				dst[i] = quantizeHalf(s, b)
			}
		})
	}
}

// halfLUT is the GPU half's load conversion for one input grid: entry q
// is q dequantized and rounded to binary16, widened back to float32. A
// grid has only 256 values, so one table replaces a per-element
// dequantize-and-round; entry ZeroPoint is +0, the binary16 padding value.
func halfLUT(p quant.Params) [256]float32 {
	var lut [256]float32
	for q := range lut {
		lut[q] = f16.FromFloat32(p.Dequantize(uint8(q))).Float32()
	}
	return lut
}

func (l *Conv2D) halfWeights(fromQ bool) []f16.F16 {
	if fromQ {
		l.mustQuantReady()
		return l.hwFromQ
	}
	if l.hwFromF == nil {
		if l.W == nil {
			panic("nn: forward on spec-only Conv2D " + l.LayerName)
		}
		l.hwFromF = f16.FromSlice32(l.W.Data)
	}
	return l.hwFromF
}

func (l *Conv2D) mustQuantReady() {
	if !l.QI.Ready {
		panic("nn: quantized forward before SetQuant on " + l.LayerName)
	}
}
