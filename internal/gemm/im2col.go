package gemm

import "mulayer/internal/f16"

// ConvGeom captures the geometry of one 2-D convolution for im2col
// lowering: an (inC, inH, inW) input, kH×kW filters applied with the given
// strides and symmetric zero padding.
type ConvGeom struct {
	InC, InH, InW    int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// PatchRows returns K, the number of rows of the patch matrix
// (inC·kH·kW), which is also the width of the lowered filter matrix.
func (g ConvGeom) PatchRows() int { return g.InC * g.KH * g.KW }

// PatchCols returns N, the number of columns of the patch matrix (one per
// output spatial position).
func (g ConvGeom) PatchCols() int { return g.OutH() * g.OutW() }

// MatrixGeom returns the geometry whose patch matrix is the row-major
// k×n matrix itself: a 1×1, stride-1, unpadded convolution over k input
// planes of 1×n. A fully-connected layer's activation vector is
// MatrixGeom(k, 1) — the FC-as-1×1-convolution identity of §2.1 — so
// matrix operands and conv inputs share one packing path.
func MatrixGeom(k, n int) ConvGeom {
	return ConvGeom{InC: k, InH: 1, InW: n, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
}

// Im2ColF16 lowers one binary16 batch element (chw layout, len =
// inC·inH·inW) into its K×N patch matrix; padding taps are +0. dst must
// have length ≥ PatchRows()·PatchCols().
func Im2ColF16(in []f16.F16, g ConvGeom, dst []f16.F16) { im2col(in, g, dst, 0) }

// Im2ColU8 lowers one quantized batch element. Padding taps are filled with
// the input zero point, which represents real 0 on the quantized grid —
// this is why affine quantization must make 0 exactly representable.
func Im2ColU8(in []uint8, g ConvGeom, dst []uint8, zeroPoint uint8) { im2col(in, g, dst, zeroPoint) }

// im2col writes the patch matrix row by row: row (c,kh,kw) holds that tap
// for every output position, pad where it falls outside the input. The
// kernels never read this form — they pack straight from the input
// through patches — so it stays the independent oracle the fused packs
// are tested against.
func im2col[T uint8 | f16.F16 | float32](in []T, g ConvGeom, dst []T, pad T) {
	oh, ow := g.OutH(), g.OutW()
	n := oh * ow
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				// Output x reads input column x·StrideW − PadW + kw, which is
				// inside the input for x in [x0, x1).
				x0 := min(ow, ceilDiv(max(g.PadW-kw, 0), g.StrideW))
				x1 := max(x0, min(ow, ceilDiv(g.InW+g.PadW-kw, g.StrideW)))
				for y := 0; y < oh; y++ {
					d := dst[row*n+y*ow : row*n+(y+1)*ow]
					sy := y*g.StrideH - g.PadH + kh
					if sy < 0 || sy >= g.InH {
						for x := range d {
							d[x] = pad
						}
						continue
					}
					src := plane[sy*g.InW : (sy+1)*g.InW]
					for x := 0; x < x0; x++ {
						d[x] = pad
					}
					for x := x0; x < x1; x++ {
						d[x] = src[x*g.StrideW-g.PadW+kw]
					}
					for x := x1; x < ow; x++ {
						d[x] = pad
					}
				}
				row++
			}
		}
	}
}

// ceilDiv is ⌈a/b⌉ for a ≥ 0, b > 0; for a < 0 it returns a value ≤ 0,
// which is all im2col needs to clamp an empty range.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// patches reads the patch matrix of one input column by column for the
// packs. The input's padding is written out (padded), so every window lies
// inside the copy, and column j is in[at[j]+o] for every tap offset o of
// off.
type patches[T uint8 | f16.F16 | float32] struct {
	in      []T
	g       ConvGeom // of in: no padding
	off, at []int32
}

// newPatches sets up the column reads of (in, g) in s's scratch, pad
// filling the padding; buf is s's padded-input buffer of in's type.
func newPatches[T uint8 | f16.F16 | float32](s *scratch, in []T, g ConvGeom, pad T, buf *[]T) patches[T] {
	var p patches[T]
	p.in, p.g = padded(in, g, pad, buf)
	g = p.g
	ow := g.OutW()
	p.off, p.at = grow(&s.off, g.PatchRows()), grow(&s.at, g.PatchCols())
	i := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				p.off[i] = int32((c*g.InH+kh)*g.InW + kw)
				i++
			}
		}
	}
	for j := range p.at {
		p.at[j] = int32(j/ow*g.StrideH*g.InW + j%ow*g.StrideW)
	}
	return p
}

// padded returns in with g's padding written out around every plane (pad
// in each padding tap) in pooled scratch buf, and the geometry of that
// input, which has no padding and the same output size. Each input
// element is read by KH·KW patch columns, so one copy per call turns a
// padded geometry's border columns (about half the columns of a 7×7 plane
// under a 3×3 window) into plain offset reads. Windows start at or after
// the top-left padding, but one larger than the padded input (the output
// size formula rounds toward zero) runs past its bottom or right edge, so
// the copy is extended there with pad to the extent the windows reach. A
// geometry whose windows all lie inside the input returns in and g
// themselves.
func padded[T uint8 | f16.F16 | float32](in []T, g ConvGeom, pad T, buf *[]T) ([]T, ConvGeom) {
	p := g
	p.InH = max(g.InH+2*g.PadH, (g.OutH()-1)*g.StrideH+g.KH)
	p.InW = max(g.InW+2*g.PadW, (g.OutW()-1)*g.StrideW+g.KW)
	p.PadH, p.PadW = 0, 0
	if p.InH == g.InH && p.InW == g.InW {
		return in, g
	}
	out := grow(buf, p.InC*p.InH*p.InW)
	out[0] = pad
	for n := 1; n < len(out); n *= 2 { // fill by doubling copies
		copy(out[n:], out[:n])
	}
	for c := 0; c < g.InC; c++ {
		for y := 0; y < g.InH; y++ {
			copy(out[(c*p.InH+y+g.PadH)*p.InW+g.PadW:], in[(c*g.InH+y)*g.InW:][:g.InW])
		}
	}
	return out, p
}
