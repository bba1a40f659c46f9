package gemm

import (
	"math"
	"math/rand"
	"testing"

	"mulayer/internal/f16"
)

// Edge-case geometries for the im2col lowering, exercised directly
// rather than through internal/nn: padding wider than the kernel,
// strides larger than the input extent, 1×1 convolutions, and
// combinations thereof. Each is validated by running the lowered GEMM
// against the im2col-free direct convolution, and ConvF32's fused pack
// against the lowered GEMM.
func edgeGeoms() []ConvGeom {
	return []ConvGeom{
		// Padding > kernel: every border output is entirely padding taps.
		{InC: 2, InH: 3, InW: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{InC: 1, InH: 4, InW: 2, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3},
		// Stride > input extent: a single output column/row survives.
		{InC: 3, InH: 3, InW: 3, KH: 1, KW: 1, StrideH: 5, StrideW: 5},
		{InC: 1, InH: 6, InW: 3, KH: 2, KW: 2, StrideH: 4, StrideW: 4},
		// 1×1 convolution: im2col must be a pure channel reshape.
		{InC: 4, InH: 5, InW: 7, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		// 1×1 with stride: spatial subsampling.
		{InC: 2, InH: 5, InW: 5, KH: 1, KW: 1, StrideH: 2, StrideW: 2},
		// Asymmetric everything at once.
		{InC: 2, InH: 7, InW: 4, KH: 3, KW: 2, StrideH: 3, StrideW: 2, PadH: 4, PadW: 3},
		// Kernel spanning the whole padded input: one output position.
		{InC: 1, InH: 2, InW: 2, KH: 4, KW: 4, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	}
}

func TestIm2ColF32EdgeGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, g := range edgeGeoms() {
		if g.OutH() <= 0 || g.OutW() <= 0 {
			t.Fatalf("geom %+v: degenerate output %dx%d", g, g.OutH(), g.OutW())
		}
		const outC = 2
		in := randF32(g.InC*g.InH*g.InW, rng)
		w := randF32(outC*g.InC*g.KH*g.KW, rng)
		patches := make([]float32, g.PatchRows()*g.PatchCols())
		im2col(in, g, patches, 0)
		got := make([]float32, outC*g.PatchCols())
		F32Ref(w, patches, got, outC, g.PatchRows(), g.PatchCols())
		want := directConv(in, g, w, outC)
		n := g.PatchCols()
		fused := make([]float32, outC*n)
		ConvF32(PackAF32(w, outC, g.PatchRows()), in, g, func(r, j0 int, row []float32) { copy(fused[r*n+j0:], row) })
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("geom %+v elem %d: %v vs %v", g, i, got[i], want[i])
			}
			if fused[i] != got[i] {
				t.Fatalf("geom %+v elem %d: ConvF32 %v vs im2col + F32Ref %v", g, i, fused[i], got[i])
			}
		}
	}
}

func TestIm2ColU8EdgeGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range edgeGeoms() {
		in := randU8(g.InC*g.InH*g.InW, rng)
		const zp = 131
		dst := make([]uint8, g.PatchRows()*g.PatchCols())
		Im2ColU8(in, g, dst, zp)
		// Direct reconstruction: every patch element is either the
		// corresponding input tap or the zero point for padding.
		oh, ow := g.OutH(), g.OutW()
		row := 0
		for c := 0; c < g.InC; c++ {
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					for y := 0; y < oh; y++ {
						for x := 0; x < ow; x++ {
							sy := y*g.StrideH - g.PadH + kh
							sx := x*g.StrideW - g.PadW + kw
							want := uint8(zp)
							if sy >= 0 && sy < g.InH && sx >= 0 && sx < g.InW {
								want = in[(c*g.InH+sy)*g.InW+sx]
							}
							if got := dst[row*oh*ow+y*ow+x]; got != want {
								t.Fatalf("geom %+v tap (c%d kh%d kw%d y%d x%d): %d vs %d", g, c, kh, kw, y, x, got, want)
							}
						}
					}
					row++
				}
			}
		}
	}
}

func TestIm2ColF16EdgeGeometriesMatchF32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, g := range edgeGeoms() {
		inF := randF32(g.InC*g.InH*g.InW, rng)
		inH := f16.FromSlice32(inF)
		pf := make([]float32, g.PatchRows()*g.PatchCols())
		ph := make([]f16.F16, g.PatchRows()*g.PatchCols())
		im2col(inF, g, pf, 0)
		Im2ColF16(inH, g, ph)
		for i := range pf {
			if ph[i] != f16.FromFloat32(pf[i]) {
				t.Fatalf("geom %+v elem %d differs", g, i)
			}
		}
	}
}

// A 1×1 kernel with unit stride and no padding must lower to the
// identity: the patch matrix is exactly the input planes.
func TestIm2Col1x1IsReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := ConvGeom{InC: 3, InH: 4, InW: 6, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	in := randF32(g.InC*g.InH*g.InW, rng)
	dst := make([]float32, g.PatchRows()*g.PatchCols())
	im2col(in, g, dst, 0)
	if g.PatchRows() != g.InC || g.PatchCols() != g.InH*g.InW {
		t.Fatalf("1x1 patch dims %dx%d", g.PatchRows(), g.PatchCols())
	}
	for i := range in {
		if dst[i] != in[i] {
			t.Fatalf("elem %d: %v vs %v", i, dst[i], in[i])
		}
	}
}

// Outputs that fall entirely in the padding region must be all-zero
// (F32) / all-zero-point (U8) rows regardless of the input.
func TestIm2ColAllPaddingTaps(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	in := []float32{5, 6, 7, 8}
	dst := make([]float32, g.PatchRows()*g.PatchCols())
	im2col(in, g, dst, 0)
	oh, ow := g.OutH(), g.OutW()
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			sy, sx := y-g.PadH, x-g.PadW
			inBounds := sy >= 0 && sy < g.InH && sx >= 0 && sx < g.InW
			v := dst[y*ow+x]
			if inBounds && v != in[sy*g.InW+sx] {
				t.Fatalf("(%d,%d): %v, want input tap", y, x, v)
			}
			if !inBounds && v != 0 {
				t.Fatalf("(%d,%d): %v, want padding 0", y, x, v)
			}
		}
	}
}
