package nn

import (
	"math"
	"sync"

	"mulayer/internal/f16"
	"mulayer/internal/gemm"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// Conv2D is a 2-D convolutional layer (OIHW filters, NCHW activations)
// with optional grouping (Groups=InC gives a depthwise convolution) and a
// fused activation. A fully-connected layer is a 1×1 convolution over a
// 1×1 spatial extent (§2.1), and FullyConnected runs as one.
//
// The layer carries float32 master weights plus the QUInt8 weights and
// int32 bias of the CPU integer path. Its two binary16 weight sets — one
// rounded from the F32 master (pure-F16 execution) and one dequantized
// from the QUInt8 weights (the GPU path of processor-friendly
// quantization, which uploads filters as dequantized halves, §6) — are
// derived element by element (halfF, halfQ) into the packed caches.
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

	wq    *tensor.QTensor
	biasQ []int32
	reqs  []quant.Requantizer // per-channel output stages (PerChannelW)

	// Packed-weight caches, one per weight form, keyed by the output
	// channel range [c0,c1) a split plan assigns to a processor. Filters
	// are reused on every request, so the kernels run against panels
	// packed once per (range, form) and shared across calls — including
	// concurrent CPU/GPU halves of a split layer. Each build derives its
	// weight form under the cache's lock.
	packF32 gemm.PackCache[[2]int, gemm.PackedAF32]
	packQ   gemm.PackCache[[2]int, gemm.PackedAU8]
	packHF  gemm.PackCache[[2]int, gemm.PackedAF16]
	packHQ  gemm.PackCache[[2]int, gemm.PackedAF16]

	// stages holds the GPU half's output stage per (output grid,
	// activation), about 1 KiB each, built on first use.
	stages gemm.PackCache[stageKey, halfStage]
}

// stageKey identifies one output stage: the grid a forward quantizes onto
// and the activation applied before it.
type stageKey struct {
	out quant.Params
	act quant.Activation
}

// halfStage is the GPU half's output stage for one stageKey: steps is the
// step table of t ↦ out.Quantize(act.Apply(half(t))), where t is a float32
// sum of two binary16 values and half rounds it to binary16 — that is,
// f16.Add's rounding, the activation and the quantization in one
// monotone map.
type halfStage struct {
	stageKey
	steps *quant.StepTable
}

func newHalfStage(k stageKey) *halfStage {
	return &halfStage{k, quant.NewStepTable(k.out, func(t float32) uint8 {
		return k.out.Quantize(k.act.Apply(f16.FromFloat32(t).Float32()))
	})}
}

// resetPacks drops the packed-weight and output-stage caches after the
// underlying weight forms or grids change (SetQuant rebuilds the QUInt8
// weights and the grids the dequantized halves come from).
func (l *Conv2D) resetPacks() {
	l.packF32.Reset()
	l.packQ.Reset()
	l.packHF.Reset()
	l.packHQ.Reset()
	l.stages.Reset()
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
// the weight grid from the master weights, and builds the QUInt8 weights
// and integer bias. Must be called before any quantized or
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
}

// requantizerFor returns the output stage for one output channel.
func (l *Conv2D) requantizerFor(oc int, fallback *quant.Requantizer) quant.Requantizer {
	if l.QI.PerChannel() {
		return l.reqs[oc]
	}
	return *fallback
}

// biasAt returns output channel oc's float32 bias (0 without biases).
func (l *Conv2D) biasAt(oc int) float32 {
	if l.Bias == nil {
		return 0
	}
	return l.Bias[oc]
}

// ForwardF32 computes output channels [c0,c1) of the F32 pipeline. Bias
// and activation run on each result strip as the kernel finishes it.
func (l *Conv2D) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	l.mustHaveWeights()
	if l.groups() != 1 {
		l.directFloat(in.Shape, out.Shape, c0, c1, func(i int) float32 { return l.W.Data[i] }, func(i int) float32 { return in.Data[i] }, func(i, oc int, s float32) {
			out.Data[i] = l.Act.Apply(s + l.biasAt(oc))
		})
		return
	}
	g := l.geom(in.Shape)
	k, plane := g.PatchRows(), g.PatchCols()
	pw := l.packF32.Get([2]int{c0, c1}, func() *gemm.PackedAF32 {
		return gemm.PackAF32(l.W.Data[c0*k:c1*k], c1-c0, k)
	})
	for n := 0; n < in.Shape.N; n++ {
		lo, _ := out.Shape.ChannelSpan(n, c0, c1)
		gemm.ConvF32(pw, batchElem(in.Data, in.Shape, n), g, func(r, j0 int, row []float32) {
			b := l.biasAt(c0 + r)
			dst := out.Data[lo+r*plane+j0:]
			for i, s := range row {
				dst[i] = l.Act.Apply(s + b)
			}
		})
	}
}

// directFloat handles grouped/depthwise float convolutions with straight
// loops, accumulating in float32 like the GEMM kernels. w widens flat
// weight element i and at flat input element i; emit receives flat output
// index i of channel oc with its float32 sum and finishes it.
func (l *Conv2D) directFloat(inS, outS tensor.Shape, c0, c1 int, w, at func(i int) float32, emit func(i, oc int, s float32)) {
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
								// float32(...) keeps the product unfused (DESIGN §8).
								s += float32(w(((oc*icg+ic)*l.KH+kh)*l.KW+kw) * at(inS.Index(n, cin, sy, sx)))
							}
						}
					}
					emit(outS.Index(n, oc, y, x), oc, s)
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
	pw := l.packQ.Get([2]int{c0, c1}, func() *gemm.PackedAU8 {
		return gemm.PackAU8(l.wq.Data[c0*k:c1*k], c1-c0, k)
	})
	za, zw := int32(in.Params.ZeroPoint), int32(l.QI.W.ZeroPoint)
	st := qStages.Get().(*qStage)
	st.l, st.req, st.c0, st.plane = l, req, c0, plane
	for n := 0; n < in.Shape.N; n++ {
		lo, _ := out.Shape.ChannelSpan(n, c0, c1)
		st.dst = out.Data[lo:]
		gemm.ConvQ(pw, batchElem(in.Data, in.Shape, n), g, zw, za, st.row)
	}
	st.l, st.dst = nil, nil
	qStages.Put(st)
}

// qStage is ForwardQ's output stage for one batch element: it requantizes
// each accumulator strip the kernel finishes into the output channels
// [c0,c1) that dst starts with. The kernel may run the stage on several
// goroutines, so it escapes; stages are pooled with row bound to store
// once, so a warm ForwardQ allocates nothing.
type qStage struct {
	l         *Conv2D
	req       quant.Requantizer // the per-tensor stage
	dst       []uint8
	c0, plane int
	row       func(r, j0 int, acc []int32)
}

var qStages = sync.Pool{New: func() any {
	st := new(qStage)
	st.row = st.store
	return st
}}

func (st *qStage) store(r, j0 int, acc []int32) {
	rq := st.l.requantizerFor(st.c0+r, &st.req)
	rq.Strip(st.dst[r*st.plane+j0:], acc, st.l.biasQ[st.c0+r])
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
				rq := l.requantizerFor(oc, &req)
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

// ForwardF16 computes output channels [c0,c1) in half precision with the
// weights rounded from the F32 master (pure-F16 execution, Figure 8).
// Each sum is rounded to half, widened, biased, activated and rounded
// again, on each result strip as the kernel finishes it.
func (l *Conv2D) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, l.OutC, l.LayerName)
	l.mustHaveWeights()
	finish := func(s, b float32) f16.F16 {
		return f16.FromFloat32(l.Act.Apply(f16.FromFloat32(s).Float32() + b))
	}
	if l.groups() != 1 {
		l.directFloat(in.Shape, out.Shape, c0, c1, func(i int) float32 { return l.halfF(i).Float32() }, func(i int) float32 { return in.Data[i].Float32() }, func(i, oc int, s float32) {
			out.Data[i] = finish(s, l.biasAt(oc))
		})
		return
	}
	g := l.geom(in.Shape)
	k, plane := g.PatchRows(), g.PatchCols()
	pw := l.packHF.Get([2]int{c0, c1}, func() *gemm.PackedAF16 { return packHalf(c0, c1, k, l.halfF) })
	for n := 0; n < in.Shape.N; n++ {
		lo, _ := out.Shape.ChannelSpan(n, c0, c1)
		gemm.ConvF16(pw, batchElem(in.Data, in.Shape, n), g, func(r, j0 int, row []float32) {
			b := l.biasAt(c0 + r)
			dst := out.Data[lo+r*plane+j0:]
			for i, s := range row {
				dst[i] = finish(s, b)
			}
		})
	}
}

// ForwardQViaF16 is the GPU side of processor-friendly quantization
// (Figure 9b): load QUInt8 activations, dequantize on the fly to binary16,
// convolve in half precision against the dequantized-half weights, and
// requantize the result back onto the QUInt8 output grid. The
// dequantization is a 256-entry table (halfLUT) applied while the kernel
// packs its operand, and the epilogue — round to half, add the half bias,
// activate, quantize (halfStage.quantize) — runs on each strip as the kernel
// finishes it.
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
	key := stageKey{out.Params, l.Act}
	st := l.stages.Get(key, func() *halfStage { return newHalfStage(key) })
	if l.groups() != 1 {
		l.directFloat(in.Shape, out.Shape, c0, c1, func(i int) float32 { return l.halfQ(i).Float32() }, func(i int) float32 { return lut[in.Data[i]] }, func(i, oc int, s float32) {
			st.quantize(out.Data[i:i+1], []float32{s}, bias(oc))
		})
		return
	}
	g := l.geom(in.Shape)
	k, plane := g.PatchRows(), g.PatchCols()
	pw := l.packHQ.Get([2]int{c0, c1}, func() *gemm.PackedAF16 { return packHalf(c0, c1, k, l.halfQ) })
	for n := 0; n < in.Shape.N; n++ {
		lo, _ := out.Shape.ChannelSpan(n, c0, c1)
		gemm.ConvQViaF16(pw, batchElem(in.Data, in.Shape, n), g, &lut, in.Params.ZeroPoint, func(r, j0 int, acc []float32) {
			st.quantize(out.Data[lo+r*plane+j0:], acc, bias(c0+r))
		})
	}
}

// quantize is the output stage over one strip row: each float32 sum
// acc[i] is rounded to binary16, gets the half bias b added with one
// binary16 rounding (f16.Add), is activated and is quantized into dst[i].
// The first rounding runs in the float32 domain (f16.RoundNormal), and
// the float32 sum with the bias goes straight into the step table, which
// holds the second rounding, the activation and the quantization. A sum
// whose first rounding leaves the zero-or-normal binary16 range, or a NaN
// bias, takes the f16 chain itself. Either way the code is the chain's,
// bit for bit.
func (st *halfStage) quantize(dst []uint8, acc []float32, b f16.F16) {
	bf, nan := b.Float32(), b.IsNaN()
	dst = dst[:len(acc)]
	for i, s := range acc {
		if h, ok := f16.RoundNormal(s); ok && !nan {
			dst[i] = st.steps.Quantize(h + bf)
		} else {
			dst[i] = st.out.Quantize(st.act.Apply(f16.Add(f16.FromFloat32(s), b).Float32()))
		}
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

// halfF is flat weight i rounded from the F32 master to binary16.
func (l *Conv2D) halfF(i int) f16.F16 { return f16.FromFloat32(l.W.Data[i]) }

// halfQ is flat weight i dequantized from its QUInt8 grid and rounded to
// binary16: the filter the GPU half uploads.
func (l *Conv2D) halfQ(i int) f16.F16 {
	wp := l.QI.W
	if l.QI.PerChannel() {
		wp = l.QI.WPerChannel[i/(len(l.wq.Data)/l.OutC)]
	}
	return f16.FromFloat32(wp.Dequantize(l.wq.Data[i]))
}

// packHalf packs output channels [c0,c1) of the binary16 weight set whose
// flat element i is half(i), k weights per channel.
func packHalf(c0, c1, k int, half func(i int) f16.F16) *gemm.PackedAF16 {
	w := make([]f16.F16, (c1-c0)*k)
	for i := range w {
		w[i] = half(c0*k + i)
	}
	return gemm.PackAF16(w, c1-c0, k)
}

func (l *Conv2D) mustHaveWeights() {
	if l.W == nil {
		panic("nn: forward on spec-only Conv2D " + l.LayerName)
	}
}

func (l *Conv2D) mustQuantReady() {
	if !l.QI.Ready {
		panic("nn: quantized forward before SetQuant on " + l.LayerName)
	}
}
