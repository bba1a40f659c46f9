package nn

import (
	"encoding/binary"
	"math"
	"sync"

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
	if l.Max {
		w.maxQ(in, out, c0, c1)
		return
	}
	zp := int32(in.Params.ZeroPoint)
	for n := 0; n < in.Shape.N; n++ {
		for c := c0; c < c1; c++ {
			src, dst := planes(in.Data, out.Data, in.Shape, out.Shape, n, c)
			for oy := 0; oy < out.Shape.H; oy++ {
				y0, y1 := w.rows(oy)
				for ox := 0; ox < out.Shape.W; ox++ {
					x0, x1 := w.cols(ox)
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

// poolScratch holds the rows maxQ folds vertical windows into.
var poolScratch = sync.Pool{New: func() any { return new([]uint8) }}

// maxQ is ForwardQ's max path. Max is separable and exact in any order,
// so instead of a window walk per output it takes two passes over bytes:
// the input rows of each vertical window are folded into one row of
// pooled scratch (slideMax, eight lanes per uint64), then each output
// takes the max of its horizontal window of that row. Folding rows first
// runs the horizontal pass on output rows only, never on input rows a
// stride skips. Windows are clamped to the input, so padding taps are
// never visited; a window that is all padding yields 0, the empty max.
func (w poolWalk) maxQ(in, out *tensor.QTensor, c0, c1 int) {
	buf := poolScratch.Get().(*[]uint8)
	defer poolScratch.Put(buf)
	oh, ow, hw := out.Shape.H, out.Shape.W, w.inH*w.inW
	xa, xb := w.interiorCols(ow)
	for n := 0; n < in.Shape.N; n++ {
		// The channel range of one batch element is contiguous.
		ilo, ihi := in.Shape.ChannelSpan(n, c0, c1)
		olo, ohi := out.Shape.ChannelSpan(n, c0, c1)
		src, dst := in.Data[ilo:ihi], out.Data[olo:ohi]
		if w.same() {
			w.maxSame(src, dst, grow(buf, len(src)))
			continue
		}
		v := grow(buf, w.inW)
		for r := 0; r < len(dst)/ow; r++ {
			plane, row := src[r/oh*hw:][:hw], dst[r*ow:(r+1)*ow]
			y0, y1 := w.rows(r % oh)
			slideMax(v, plane[y0*w.inW:], w.inW, y1-y0)
			for ox := 0; ox < xa; ox++ {
				x0, x1 := w.cols(ox)
				row[ox] = maxOf(v[x0:x1])
			}
			if xa < xb {
				maxWindows(row[xa:xb], v[xa*w.sw-w.padW:], w.sw, w.kw)
			}
			for ox := xb; ox < ow; ox++ {
				x0, x1 := w.cols(ox)
				row[ox] = maxOf(v[x0:x1])
			}
		}
	}
}

// interiorCols returns the output columns [xa, xb) of an ow-wide output
// whose windows lie wholly inside the input row.
func (w poolWalk) interiorCols(ow int) (xa, xb int) {
	xa = min(ow, (w.padW+w.sw-1)/w.sw)
	if r := w.inW + w.padW - w.kw; r >= 0 {
		xb = min(ow, r/w.sw+1)
	}
	return xa, max(xa, xb)
}

// same reports a stride-1 window centred on its output (kh = 2·padH+1,
// kw = 2·padW+1), whose output planes have the input's shape: the
// pooling branch of an Inception module.
func (w poolWalk) same() bool {
	return w.sh == 1 && w.sw == 1 && w.kh == 2*w.padH+1 && w.kw == 2*w.padW+1
}

// maxSame pools a block of whole same-shaped planes. Input row y's
// vertical window is rows y−padH … y+padH, so away from a plane's top
// and bottom edges the vertical pass is one slideMax over the whole block
// with a step of one row, and away from a row's ends the horizontal pass
// is one slideMax over the folded block with a step of one byte. The rows
// and columns within pad of an edge, whose reads crossed into a
// neighbouring row or plane, are then redone from their clamped windows,
// one edge line at a time across the whole block: an edge row has the
// same window in every plane, an edge column in every row. v is scratch
// of len(src).
func (w poolWalk) maxSame(src, dst, v []uint8) {
	hw := w.inH * w.inW
	if lo, hi := w.padH*w.inW, len(src)-w.padH*w.inW; lo < hi {
		slideMax(v[lo:hi], src[lo-w.padH*w.inW:], w.inW, w.kh)
	}
	edges(w.inH, w.padH, func(y int) {
		y0, y1 := w.rows(y)
		for p := 0; p < len(src); p += hw {
			slideMax(v[p+y*w.inW:][:w.inW], src[p+y0*w.inW:], w.inW, y1-y0)
		}
	})
	if lo, hi := w.padW, len(src)-w.padW; lo < hi {
		slideMax(dst[lo:hi], v[lo-w.padW:], 1, w.kw)
	}
	edges(w.inW, w.padW, func(x int) {
		x0, x1 := w.cols(x)
		for r := 0; r < len(src); r += w.inW {
			dst[r+x] = maxOf(v[r+x0 : r+x1])
		}
	})
}

// edges calls fn for each index of [0, n) within pad of either end.
func edges(n, pad int, fn func(i int)) {
	for i := 0; i < min(pad, n); i++ {
		fn(i)
	}
	for i := max(pad, n-pad); i < n; i++ {
		fn(i)
	}
}

// grow returns (*buf)[:n:n], reallocating when the buffer is too small;
// the capped slice makes a read past n panic rather than see stale bytes.
func grow(buf *[]uint8, n int) []uint8 {
	if cap(*buf) < n {
		*buf = make([]uint8, n)
	}
	return (*buf)[:n:n]
}

// maxOf is the largest byte of b, 0 for an empty b. The max runs on
// uint32, which amd64 selects with CMOV; on bytes it would branch, and
// on pooled activations that branch is a coin flip.
func maxOf(b []uint8) uint8 {
	var m uint32
	for _, x := range b {
		m = max(m, uint32(x))
	}
	return uint8(m)
}

// maxWindows stores in row[j] the largest byte of v[j·stride:][:k].
func maxWindows(row, v []uint8, stride, k int) {
	if k == 3 { // the zoo's pooling window, unrolled
		for j := range row {
			t := v[j*stride:][:3]
			row[j] = uint8(max(uint32(t[0]), uint32(t[1]), uint32(t[2])))
		}
		return
	}
	for j := range row {
		row[j] = maxOf(v[j*stride:][:k])
	}
}

// slideMax sets dst[i] to the largest of src[i], src[i+step], …,
// src[i+(k−1)·step] — 0 when k is 0 — eight bytes per uint64 word.
func slideMax(dst, src []uint8, step, k int) {
	if k == 0 {
		clear(dst)
		return
	}
	span := k * step
	src = src[:len(dst)+span-step]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		m := binary.LittleEndian.Uint64(src[i:])
		for d := step; d < span; d += step {
			m = maxBytes(m, binary.LittleEndian.Uint64(src[i+d:]))
		}
		binary.LittleEndian.PutUint64(dst[i:], m)
	}
	for ; i < len(dst); i++ {
		m := uint32(src[i])
		for d := step; d < span; d += step {
			m = max(m, uint32(src[i+d]))
		}
		dst[i] = uint8(m)
	}
}

// maxBytes is the lanewise unsigned max of two words of eight bytes,
// without branches. Forcing each lane's top bit on in a and off in b
// makes (a|hi) − (b&^hi) borrow within no lane, so its lane top bit says
// whether a's low seven bits are ≥ b's; where the top bits differ, a's
// alone decides. The resulting top bits widen to a byte mask that selects
// a's or b's lane.
func maxBytes(a, b uint64) uint64 {
	const hi = 0x8080808080808080
	d := (a | hi) - (b &^ hi)
	ge := (a&^b | ^(a^b)&d) & hi
	m := ge >> 7 * 0xff
	return a&m | b&^m
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
