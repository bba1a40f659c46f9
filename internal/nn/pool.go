package nn

import (
	"math"

	"mulayer/internal/f16"
	"mulayer/internal/tensor"
)

// Pool is a max or average pooling layer. Pooling applies its window
// spatially and independently per channel, so the number of output
// channels equals the number of input channels and μLayer distributes the
// *input* channels across processors (§3.2, Figure 7b) — which is the same
// [c0,c1) range primitive as the output-channel split of convolutions.
type Pool struct {
	LayerName        string
	Max              bool // true = max pooling, false = average pooling
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	Global           bool // window covers the whole input plane
	CountIncludePad  bool // average denominator includes padding taps
	QI               QuantInfo
}

// Name implements Layer.
func (l *Pool) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Pool) Kind() OpKind {
	if l.Max {
		return OpMaxPool
	}
	return OpAvgPool
}

// Quant implements Layer.
func (l *Pool) Quant() *QuantInfo { return &l.QI }

func (l *Pool) window(in tensor.Shape) (kh, kw, sh, sw int) {
	if l.Global {
		return in.H, in.W, 1, 1
	}
	return l.KH, l.KW, l.StrideH, l.StrideW
}

// OutShape implements Layer.
func (l *Pool) OutShape(ins []tensor.Shape) (tensor.Shape, error) {
	if len(ins) != 1 {
		return tensor.Shape{}, shapeErr(l.LayerName, "want 1 input, got %d", len(ins))
	}
	in := ins[0]
	kh, kw, sh, sw := l.window(in)
	oh := (in.H+2*l.PadH-kh)/sh + 1
	ow := (in.W+2*l.PadW-kw)/sw + 1
	if oh <= 0 || ow <= 0 {
		return tensor.Shape{}, shapeErr(l.LayerName, "non-positive output %dx%d for input %v", oh, ow, in)
	}
	return tensor.Shape{N: in.N, C: in.C, H: oh, W: ow}, nil
}

// Cost implements Layer. Each output element reads a kh×kw window.
func (l *Pool) Cost(ins []tensor.Shape) Cost {
	out, err := l.OutShape(ins)
	if err != nil {
		return Cost{}
	}
	kh, kw, _, _ := l.window(ins[0])
	return Cost{
		MACs:     int64(out.Elems()) * int64(kh) * int64(kw),
		InElems:  int64(ins[0].Elems()),
		OutElems: int64(out.Elems()),
	}
}

// SplitChannels implements Layer: pooling splits over its (equal) channel
// count.
func (l *Pool) SplitChannels(ins []tensor.Shape) int {
	if len(ins) != 1 {
		return 0
	}
	return ins[0].C
}

// poolWalk is the window geometry of one forward: output (oy,ox) reads
// input rows rows(oy) and columns cols(ox), the kh×kw window clamped to
// the input, so padding taps are never visited.
type poolWalk struct {
	kh, kw, sh, sw, padH, padW, inH, inW int
}

func (l *Pool) walk(in tensor.Shape) poolWalk {
	kh, kw, sh, sw := l.window(in)
	return poolWalk{kh, kw, sh, sw, l.PadH, l.PadW, in.H, in.W}
}

func (w poolWalk) rows(oy int) (y0, y1 int) { return clampSpan(oy*w.sh-w.padH, w.kh, w.inH) }
func (w poolWalk) cols(ox int) (x0, x1 int) { return clampSpan(ox*w.sw-w.padW, w.kw, w.inW) }

// clampSpan clamps [o, o+k) to [0, size).
func clampSpan(o, k, size int) (lo, hi int) {
	lo, hi = max(o, 0), min(o+k, size)
	return lo, max(hi, lo)
}

// planes returns the input and output planes of batch element n, channel c.
func planes[T any](in, out []T, inS, outS tensor.Shape, n, c int) (src, dst []T) {
	i, o := (n*inS.C+c)*inS.H*inS.W, (n*outS.C+c)*outS.H*outS.W
	return in[i : i+inS.H*inS.W], out[o : o+outS.H*outS.W]
}

// ForwardF32 pools channels [c0,c1) in single precision.
func (l *Pool) ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, in.Shape.C, l.LayerName)
	w := l.walk(in.Shape)
	for n := 0; n < in.Shape.N; n++ {
		for c := c0; c < c1; c++ {
			src, dst := planes(in.Data, out.Data, in.Shape, out.Shape, n, c)
			for oy := 0; oy < out.Shape.H; oy++ {
				y0, y1 := w.rows(oy)
				for ox := 0; ox < out.Shape.W; ox++ {
					x0, x1 := w.cols(ox)
					m, s := float32(math.Inf(-1)), float32(0)
					for y := y0; y < y1; y++ {
						for _, v := range src[y*w.inW+x0 : y*w.inW+x1] {
							if l.Max && v > m {
								m = v
							}
							s += v
						}
					}
					if l.Max {
						dst[oy*out.Shape.W+ox] = m
					} else {
						dst[oy*out.Shape.W+ox] = s / float32(l.denom(w, (y1-y0)*(x1-x0)))
					}
				}
			}
		}
	}
}

// denom is the average's divisor for a window with taps valid taps.
func (l *Pool) denom(w poolWalk, taps int) int {
	if l.CountIncludePad {
		return w.kh * w.kw
	}
	return taps
}

// ForwardQ pools channels [c0,c1) on the quantized grid. Max pooling is
// exact (max is monotone under the affine map); average pooling rounds the
// integer mean. Input and output must share quantization parameters, which
// calibration guarantees for pooling layers.
func (l *Pool) ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, in.Shape.C, l.LayerName)
	if in.Params != out.Params {
		panic("nn: pooling requires matching input/output quantization params on " + l.LayerName)
	}
	w := l.walk(in.Shape)
	zp := int32(in.Params.ZeroPoint)
	for n := 0; n < in.Shape.N; n++ {
		for c := c0; c < c1; c++ {
			src, dst := planes(in.Data, out.Data, in.Shape, out.Shape, n, c)
			for oy := 0; oy < out.Shape.H; oy++ {
				y0, y1 := w.rows(oy)
				for ox := 0; ox < out.Shape.W; ox++ {
					x0, x1 := w.cols(ox)
					if l.Max {
						var m uint8
						for y := y0; y < y1; y++ {
							for _, v := range src[y*w.inW+x0 : y*w.inW+x1] {
								m = max(m, v)
							}
						}
						dst[oy*out.Shape.W+ox] = m
						continue
					}
					var s int32
					for y := y0; y < y1; y++ {
						for _, v := range src[y*w.inW+x0 : y*w.inW+x1] {
							s += int32(v)
						}
					}
					taps := (y1 - y0) * (x1 - x0)
					d := int32(l.denom(w, taps))
					// Padding taps contribute the zero point when included in the count.
					s += (d - int32(taps)) * zp
					dst[oy*out.Shape.W+ox] = uint8((s + d/2) / d) // rounded integer mean
				}
			}
		}
	}
}

// ForwardF16 pools channels [c0,c1) in half precision; the average
// accumulates in float32 and rounds once, like the GEMM kernels.
func (l *Pool) ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int) {
	in := ins[0]
	checkRange(c0, c1, in.Shape.C, l.LayerName)
	w := l.walk(in.Shape)
	for n := 0; n < in.Shape.N; n++ {
		for c := c0; c < c1; c++ {
			src, dst := planes(in.Data, out.Data, in.Shape, out.Shape, n, c)
			for oy := 0; oy < out.Shape.H; oy++ {
				y0, y1 := w.rows(oy)
				for ox := 0; ox < out.Shape.W; ox++ {
					x0, x1 := w.cols(ox)
					m, s := float32(math.Inf(-1)), float32(0)
					for y := y0; y < y1; y++ {
						for _, h := range src[y*w.inW+x0 : y*w.inW+x1] {
							v := h.Float32()
							if l.Max && v > m {
								m = v
							}
							s += v
						}
					}
					if l.Max {
						dst[oy*out.Shape.W+ox] = f16.FromFloat32(m)
					} else {
						dst[oy*out.Shape.W+ox] = f16.FromFloat32(s / float32(l.denom(w, (y1-y0)*(x1-x0))))
					}
				}
			}
		}
	}
}
