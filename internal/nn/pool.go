package nn

import (
	"encoding/binary"
	"math"
	"sync"

	"mulayer/internal/cpu"
	"mulayer/internal/f16"
	"mulayer/internal/gemm"
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

	masks gemm.PackCache[[2]int, poolMasks] // max passes by input (H, W)
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
	if l.Max {
		l.maxQ(in, out, c0, c1)
		return
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

// poolScratch holds the folded block and pooled windows of maxQ.
var poolScratch = sync.Pool{New: func() any { return new([]uint8) }}

// poolVector selects the AVX2 body of the max passes (pool_amd64.s),
// chosen once from the host CPU. It computes maxRunGo's results bit for
// bit; tests clear it to run the Go body alone.
var poolVector = cpu.AVX2

// maxQ is ForwardQ's max path. Max is separable and exact in any order,
// so it takes two passes over the whole channel block [c0,c1) of each
// batch element, which is contiguous: at each input position a vertical
// pass takes the max of the kh rows of the window whose top-left tap is
// padH rows and padW columns before it, and a horizontal pass the max of
// kw of those. Each pass is one run over the block (maxPass), so its
// vectors are as long as the block, not a row. Windows are clamped to
// the plane, and 0 is the identity of an unsigned max, so a clamped
// window equals the full window over a zero-padded plane: a tap is
// masked to 0 where it leaves its plane (or row) instead of the edge
// windows being redone. A same-shaped pool writes the horizontal pass
// straight into out. Any other keeps the rows an output row reads before
// the horizontal pass (keepRows) and then picks every sw-th column
// (pick). The masks are built once per input shape and cached on the
// layer.
func (l *Pool) maxQ(in, out *tensor.QTensor, c0, c1 int) {
	w := l.walk(in.Shape)
	m := l.masks.Get([2]int{w.inH, w.inW}, w.maxPasses)
	buf := poolScratch.Get().(*[]uint8)
	defer poolScratch.Put(buf)
	for n := 0; n < in.Shape.N; n++ {
		ilo, ihi := in.Shape.ChannelSpan(n, c0, c1)
		olo, ohi := out.Shape.ChannelSpan(n, c0, c1)
		src, dst := in.Data[ilo:ihi], out.Data[olo:ohi]
		if w.same() {
			v := grow(buf, len(src))
			m.v.run(v, src)
			m.h.run(dst, v)
			continue
		}
		vh := grow(buf, 2*len(src))
		v, h := vh[:len(src)], vh[len(src):]
		m.v.run(v, src)
		rows := w.inH
		if w.sh > 1 {
			rows = w.keepRows(v, out.Shape.H)
		}
		k := len(src) / (w.inH * w.inW) * rows * w.inW
		m.h.run(h[:k], v[:k])
		w.pick(dst, h, src, out.Shape.H, out.Shape.W, rows)
	}
}

// keepRows moves the rows of v an output row reads, every sh-th up to
// the plane's last, to the front of v in place, plane after plane, and
// returns how many rows each plane keeps: the horizontal pass then runs
// on those rows only.
func (w poolWalk) keepRows(v []uint8, oh int) int {
	hw, keep := w.inH*w.inW, min(oh, (w.inH-1)/w.sh+1)
	for p := 0; p < len(v)/hw; p++ {
		for oy := 0; oy < keep; oy++ {
			copy(v[(p*keep+oy)*w.inW:][:w.inW], v[p*hw+oy*w.sh*w.inW:])
		}
	}
	return keep
}

// same reports a stride-1 window centred on its output (kh = 2·padH+1,
// kw = 2·padW+1), whose output planes have the input's shape: the
// pooling branch of an Inception module.
func (w poolWalk) same() bool {
	return w.sh == 1 && w.sw == 1 && w.kh == 2*w.padH+1 && w.kw == 2*w.padW+1
}

// pick fills the oh×ow output planes dst from h, which holds rows rows
// of each plane: row oy is the pooled windows of output row oy, the one
// whose top-left tap is (y − padH, x − padW) at its column x. Output
// (oy, ox) is that row's column ox·sw. When the rows are the output rows
// and each is ow·sw wide, that is every sw-th byte of h. An output whose
// position lies past the plane's last row or column (a padding wider
// than half the window) has no h entry and is taken from its clamped
// window in src.
func (w poolWalk) pick(dst, h, src []uint8, oh, ow, rows int) {
	hw := w.inH * w.inW
	yIn, xIn := min(oh, (w.inH-1)/w.sh+1), min(ow, (w.inW-1)/w.sw+1)
	if rows == oh && yIn == oh && xIn == ow && ow*w.sw == w.inW {
		pickCols(dst, h, w.sw)
		return
	}
	for p := 0; p < len(dst)/(oh*ow); p++ {
		for oy := 0; oy < oh; oy++ {
			row, ox := dst[(p*oh+oy)*ow:][:ow], 0
			if oy < yIn {
				pickCols(row[:xIn], h[(p*rows+oy)*w.inW:][:w.inW], w.sw)
				ox = xIn
			}
			for ; ox < ow; ox++ {
				y0, y1 := w.rows(oy)
				x0, x1 := w.cols(ox)
				var m uint8
				for y := y0; y < y1; y++ {
					m = max(m, maxOf(src[p*hw+y*w.inW:][x0:x1]))
				}
				row[ox] = m
			}
		}
	}
}

// pickCols sets row[j] to hr[j·sw]; at sw = 2 it takes four even bytes
// of a word at a time.
func pickCols(row, hr []uint8, sw int) {
	switch sw {
	case 1:
		copy(row, hr)
		return
	case 2:
		for len(row) >= 4 && len(hr) >= 8 {
			x := binary.LittleEndian.Uint64(hr) & 0x00ff00ff00ff00ff
			x = (x | x>>8) & 0x0000ffff0000ffff
			binary.LittleEndian.PutUint32(row, uint32(x|x>>16))
			row, hr = row[4:], hr[8:]
		}
	}
	for j := range row {
		row[j] = hr[j*sw]
	}
}

// poolMasks are the two passes of one max-pool geometry on one input
// shape.
type poolMasks struct{ v, h maxPass }

// maxPasses builds the vertical pass (taps a row apart, masked by the
// row within the plane) and the horizontal pass (taps a byte apart,
// masked by the column within the row).
func (w poolWalk) maxPasses() *poolMasks {
	return &poolMasks{
		v: newMaxPass(w.kh, w.padH, w.inW, w.inH, w.inH*w.inW),
		h: newMaxPass(w.kw, w.padW, 1, w.inW, w.inW),
	}
}

// maxPass is one pass of maxQ over a block of whole planes: element i is
// the max over taps t of src[i+shift+off[t]], each masked to 0 where the
// tap leaves its plane or row. Tap t's mask is row t of mask, period+32
// bytes long: byte p < period+32 is 0xff when the tap is inside at block
// position ≡ p (mod period), 0 when not. The pattern repeats every cycle
// bytes (a plane or a row); period is the smallest multiple of cycle of
// at least 32, so a 32-byte vector read at any phase below period lies
// inside the row. off is ascending from 0.
type maxPass struct {
	off          []int
	shift, reach int // the least tap offset, and the greatest minus it
	mask         []uint8
	period       int
}

// newMaxPass is the pass of a k-tap window with pad taps before its
// position, its taps unit bytes apart: tap t at position i reads the
// element (t − pad) units away, inside when 0 ≤ u(i) + t − pad < size
// for u(i) = (i mod cycle)/unit.
func newMaxPass(k, pad, unit, size, cycle int) maxPass {
	period := cycle * ((32 + cycle - 1) / cycle)
	ps := maxPass{off: make([]int, k), shift: -pad * unit, reach: (k - 1) * unit, mask: make([]uint8, k*(period+32)), period: period}
	for t := range ps.off {
		ps.off[t] = t * unit
		row := ps.mask[t*(period+32) : (t+1)*(period+32)]
		for p := range row {
			if u := p%cycle/unit + t - pad; u >= 0 && u < size {
				row[p] = 0xff
			}
		}
	}
	return ps
}

// run sets dst[i], for every i of the block, to the masked max of its
// taps in src, len(src) == len(dst). Elements whose taps all lie inside
// the block run as one maxRun; those at the block's two ends, some of
// whose taps fall outside it, have those taps masked anyway and run
// them as 0.
func (ps *maxPass) run(dst, src []uint8) {
	n := len(dst)
	lo := min(n, max(0, -ps.shift))
	hi := max(lo, n-ps.shift-ps.reach)
	ps.edge(dst, src, 0, lo)
	if lo < hi {
		body, phase := dst[lo:hi], lo%ps.period
		from := src[lo+ps.shift:]
		if !maxRunVector(body, from, ps.off, ps.mask, ps.period, phase) {
			maxRunGo(body, from, ps.off, ps.mask, ps.period, phase)
		}
	}
	ps.edge(dst, src, hi, n)
}

// edge runs elements [i0, i1) of the block tap by tap, reading a tap
// outside src as 0.
func (ps *maxPass) edge(dst, src []uint8, i0, i1 int) {
	for i := i0; i < i1; i++ {
		var m uint8
		for t, o := range ps.off {
			if j := i + ps.shift + o; j >= 0 && j < len(src) {
				m = max(m, src[j]&ps.mask[t*(ps.period+32)+i%ps.period])
			}
		}
		dst[i] = m
	}
}

// maxRunGo is the portable body of a pass, eight lanes per uint64 word:
// dst[i] = max over t of src[i+off[t]] & mask[t·(period+32) + (phase+i)
// mod period]. src must hold len(dst) + off[len(off)−1] bytes.
func maxRunGo(dst, src []uint8, off []int, mask []uint8, period, phase int) {
	stride := period + 32
	i, p := 0, phase
	for ; i+8 <= len(dst); i += 8 {
		var m uint64
		for t, o := range off {
			m = maxBytes(m, binary.LittleEndian.Uint64(src[i+o:])&binary.LittleEndian.Uint64(mask[t*stride+p:]))
		}
		binary.LittleEndian.PutUint64(dst[i:], m)
		if p += 8; p >= period {
			p -= period
		}
	}
	for ; i < len(dst); i++ {
		var m uint8
		for t, o := range off {
			m = max(m, src[i+o]&mask[t*stride+p])
		}
		dst[i] = m
		if p++; p == period {
			p = 0
		}
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
