package gemm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mulayer/internal/f16"
)

func randF32(n int, rng *rand.Rand) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func randU8(n int, rng *rand.Rand) []uint8 {
	s := make([]uint8, n)
	for i := range s {
		s[i] = uint8(rng.Intn(256))
	}
	return s
}

// f32GEMM, f16GEMM and qGEMM multiply a pre-packed left operand by a
// row-major K×n matrix through the conv entry points at MatrixGeom, the
// way a layer reuses its cached weight panels.
func f32GEMM(pa *PackedAF32, b, c []float32, n int) {
	ConvF32(pa, b, MatrixGeom(pa.K, n), func(r, j0 int, row []float32) { copy(c[r*n+j0:], row) })
}

func f16GEMM(pa *PackedAF16, b, c []f16.F16, n int) {
	ConvF16(pa, b, MatrixGeom(pa.K, n), func(r, j0 int, row []float32) {
		for j, v := range row {
			c[r*n+j0+j] = f16.FromFloat32(v)
		}
	})
}

func qGEMM(pa *PackedAU8, b []uint8, acc []int32, n int, za, zb int32) {
	ConvQ(pa, b, MatrixGeom(pa.K, n), za, zb, func(r, j0 int, row []int32) { copy(acc[r*n+j0:], row) })
}

func TestF32MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {33, 17, 40}, {64, 64, 64}, {100, 3, 1}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randF32(m*k, rng), randF32(k*n, rng)
		got, want := make([]float32, m*n), make([]float32, m*n)
		f32GEMM(PackAF32(a, m, k), b, got, n)
		F32Ref(a, b, want, m, k, n)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("shape %v elem %d: %v vs %v", s, i, got[i], want[i])
			}
		}
	}
}

func TestF32OverwritesStaleOutput(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	c := []float32{999} // stale garbage must not leak into the result
	f32GEMM(PackAF32(a, 1, 2), b, c, 1)
	if c[0] != 11 {
		t.Fatalf("c = %v, want 11", c[0])
	}
}

func TestF32PropertyAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(ms, ks, ns uint8) bool {
		m, k, n := int(ms%20)+1, int(ks%20)+1, int(ns%20)+1
		a, b := randF32(m*k, rng), randF32(k*n, rng)
		got, want := make([]float32, m*n), make([]float32, m*n)
		f32GEMM(PackAF32(a, m, k), b, got, n)
		F32Ref(a, b, want, m, k, n)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestF16MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][3]int{{1, 1, 1}, {5, 7, 3}, {40, 33, 20}} {
		m, k, n := s[0], s[1], s[2]
		a, b := f16.FromSlice32(randF32(m*k, rng)), f16.FromSlice32(randF32(k*n, rng))
		got := make([]f16.F16, m*n)
		want := make([]f16.F16, m*n)
		F16GEMM(a, b, got, m, k, n)
		F16Ref(a, b, want, m, k, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shape %v elem %d: %#04x vs %#04x", s, i, got[i], want[i])
			}
		}
	}
}

func TestF16CloseToF32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, k, n := 16, 32, 16
	af := randF32(m*k, rng)
	bf := randF32(k*n, rng)
	a, b := f16.FromSlice32(af), f16.FromSlice32(bf)
	hc := make([]f16.F16, m*n)
	F16GEMM(a, b, hc, m, k, n)
	fc := make([]float32, m*n)
	F32Ref(af, bf, fc, m, k, n)
	for i := range fc {
		d := math.Abs(float64(hc[i].Float32() - fc[i]))
		// Operand rounding error ~2^-11 per element × k terms.
		if d > 0.05 {
			t.Fatalf("elem %d: F16 %v vs F32 %v", i, hc[i].Float32(), fc[i])
		}
	}
}

func TestQGEMMMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range [][3]int{{1, 1, 1}, {6, 11, 4}, {37, 64, 35}} {
		m, k, n := s[0], s[1], s[2]
		a, b := randU8(m*k, rng), randU8(k*n, rng)
		za, zb := int32(rng.Intn(256)), int32(rng.Intn(256))
		got, want := make([]int32, m*n), make([]int32, m*n)
		QGEMM(a, b, got, m, k, n, za, zb)
		QGEMMRef(a, b, want, m, k, n, za, zb)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shape %v zp(%d,%d) elem %d: %d vs %d", s, za, zb, i, got[i], want[i])
			}
		}
	}
}

func TestQGEMMZeroPointIdentity(t *testing.T) {
	// With zero points equal to the operand values, every product is 0.
	m, k, n := 3, 4, 5
	a := make([]uint8, m*k)
	b := make([]uint8, k*n)
	for i := range a {
		a[i] = 128
	}
	for i := range b {
		b[i] = 7
	}
	acc := make([]int32, m*n)
	QGEMM(a, b, acc, m, k, n, 128, 7)
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("acc[%d] = %d, want 0", i, v)
		}
	}
}

func TestQGEMMPropertyAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(ms, ks, ns, zas, zbs uint8) bool {
		m, k, n := int(ms%16)+1, int(ks%16)+1, int(ns%16)+1
		a, b := randU8(m*k, rng), randU8(k*n, rng)
		got, want := make([]int32, m*n), make([]int32, m*n)
		QGEMM(a, b, got, m, k, n, int32(zas), int32(zbs))
		QGEMMRef(a, b, want, m, k, n, int32(zas), int32(zbs))
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Long dot products past the int32 wrap: all-255 operands maximize every
// PMADDWD pair sum and every accumulator, whose raw sums k·255² pass 2³¹
// from k = 33026 and 2³² from k = 66052; zero points 0/255 drive the
// decomposition's corrections to both extremes. The tiles' int32
// accumulators must wrap exactly as the reference's do.
func TestQGEMMSWARLaneBound(t *testing.T) {
	const m, n = 5, 5 // one full tile plus a one-column tail; a partial panel
	for _, k := range []int{66051, 66052, 140000} {
		a, b := make([]uint8, m*k), make([]uint8, k*n)
		for i := range a {
			a[i] = 255
		}
		for i := range b {
			b[i] = 255
		}
		for _, zp := range [][2]int32{{0, 0}, {255, 255}, {0, 255}, {255, 0}} {
			want, got := make([]int32, m*n), make([]int32, m*n)
			QGEMMRef(a, b, want, m, k, n, zp[0], zp[1])
			QGEMM(a, b, got, m, k, n, zp[0], zp[1])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d zp%v elem %d: %d vs %d", k, zp, i, got[i], want[i])
				}
			}
		}
	}
}

// Right operands wider than one column block (colBlock) are packed and
// multiplied block by block; results must not depend on where the block
// edges fall, including a one-column tail in the last block.
func TestColumnBlocksMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, k := 6, 2000
	n := 2*colBlock(k) + 1
	af, bf := randF32(m*k, rng), randF32(k*n, rng)
	ah, bh := f16.FromSlice32(af), f16.FromSlice32(bf)
	gotH, wantH := make([]f16.F16, m*n), make([]f16.F16, m*n)
	F16GEMM(ah, bh, gotH, m, k, n)
	F16Ref(ah, bh, wantH, m, k, n)
	au, bu := randU8(m*k, rng), randU8(k*n, rng)
	gotQ, wantQ := make([]int32, m*n), make([]int32, m*n)
	QGEMM(au, bu, gotQ, m, k, n, 7, 200)
	QGEMMRef(au, bu, wantQ, m, k, n, 7, 200)
	for i := range wantH {
		if gotH[i] != wantH[i] || gotQ[i] != wantQ[i] {
			t.Fatalf("elem %d (col %d): f16 %#04x vs %#04x, q %d vs %d", i, i%n, gotH[i], wantH[i], gotQ[i], wantQ[i])
		}
	}

	// A padded conv whose patch columns span two blocks, both halves.
	g := ConvGeom{InC: 64, InH: 30, InW: 30, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	k, n = g.PatchRows(), g.PatchCols()
	if n <= colBlock(k) {
		t.Fatalf("conv case has %d columns, want more than one block of %d", n, colBlock(k))
	}
	in, w := randU8(g.InC*g.InH*g.InW, rng), randU8(m*k, rng)
	patches := make([]uint8, k*n)
	Im2ColU8(in, g, patches, 9)
	wantQ, gotQ = make([]int32, m*n), make([]int32, m*n)
	QGEMMRef(w, patches, wantQ, m, k, n, 130, 9)
	ConvQ(PackAU8(w, m, k), in, g, 130, 9, func(r, j0 int, acc []int32) { copy(gotQ[r*n+j0:], acc) })
	var lut [256]float32
	for q := range lut {
		lut[q] = f16.FromFloat32(float32(q-9) / 64).Float32()
	}
	hin := make([]f16.F16, len(in))
	for i, v := range in {
		hin[i] = f16.FromFloat32(lut[v])
	}
	hp := make([]f16.F16, k*n)
	Im2ColF16(hin, g, hp)
	wh := f16.FromSlice32(randF32(m*k, rng))
	wantH, gotH = make([]f16.F16, m*n), make([]f16.F16, m*n)
	F16Ref(wh, hp, wantH, m, k, n)
	ConvQViaF16(PackAF16(wh, m, k), in, g, &lut, 9, func(r, j0 int, acc []float32) {
		for j, v := range acc {
			gotH[r*n+j0+j] = f16.FromFloat32(v)
		}
	})
	for i := range wantQ {
		if gotQ[i] != wantQ[i] || gotH[i] != wantH[i] {
			t.Fatalf("conv elem %d (col %d): q %d vs %d, f16 %#04x vs %#04x", i, i%n, gotQ[i], wantQ[i], gotH[i], wantH[i])
		}
	}
}

func TestDimensionChecks(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	pa := PackAU8(make([]uint8, 4*g.PatchRows()), 4, g.PatchRows())
	for name, fn := range map[string]func(){
		"short matrix operand": func() { QGEMM(make([]uint8, 3), make([]uint8, 4), make([]int32, 4), 2, 2, 2, 0, 0) },
		"pack width != K":      func() { ConvQ(PackAU8(make([]uint8, 4), 2, 2), make([]uint8, 18), g, 0, 0, nil) },
		"short conv input":     func() { ConvQ(pa, make([]uint8, 17), g, 0, 0, nil) },
		"empty conv output": func() {
			ConvQ(pa, make([]uint8, 18), ConvGeom{InC: 2, InH: 2, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, 0, 0, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConvGeomOutputSizes(t *testing.T) {
	// 224×224 input, 3×3 kernel, stride 1, pad 1 → 224×224 (VGG style).
	g := ConvGeom{InC: 3, InH: 224, InW: 224, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 224 || g.OutW() != 224 {
		t.Errorf("same-pad 3x3: %dx%d", g.OutH(), g.OutW())
	}
	// 227×227, 11×11, stride 4, no pad → 55×55 (AlexNet conv1).
	g = ConvGeom{InC: 3, InH: 227, InW: 227, KH: 11, KW: 11, StrideH: 4, StrideW: 4}
	if g.OutH() != 55 || g.OutW() != 55 {
		t.Errorf("alexnet conv1: %dx%d", g.OutH(), g.OutW())
	}
	if g.PatchRows() != 3*11*11 {
		t.Errorf("patch rows %d", g.PatchRows())
	}
	if g.PatchCols() != 55*55 {
		t.Errorf("patch cols %d", g.PatchCols())
	}
}

// directConv is an im2col-free reference convolution for one batch element.
func directConv(in []float32, g ConvGeom, w []float32, outC int) []float32 {
	oh, ow := g.OutH(), g.OutW()
	out := make([]float32, outC*oh*ow)
	for oc := 0; oc < outC; oc++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var s float32
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						sy := y*g.StrideH - g.PadH + kh
						if sy < 0 || sy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							sx := x*g.StrideW - g.PadW + kw
							if sx < 0 || sx >= g.InW {
								continue
							}
							wv := w[((oc*g.InC+c)*g.KH+kh)*g.KW+kw]
							s += wv * in[(c*g.InH+sy)*g.InW+sx]
						}
					}
				}
				out[(oc*oh+y)*ow+x] = s
			}
		}
	}
	return out
}

func TestIm2ColF32ConvEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geoms := []ConvGeom{
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 9, InW: 7, KH: 5, KW: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 1},
		{InC: 4, InH: 6, InW: 6, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
	}
	for _, g := range geoms {
		outC := 3
		in := randF32(g.InC*g.InH*g.InW, rng)
		w := randF32(outC*g.InC*g.KH*g.KW, rng)
		patches := make([]float32, g.PatchRows()*g.PatchCols())
		im2col(in, g, patches, 0)
		got := make([]float32, outC*g.PatchCols())
		F32Ref(w, patches, got, outC, g.PatchRows(), g.PatchCols())
		want := directConv(in, g, w, outC)
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("geom %+v elem %d: %v vs %v", g, i, got[i], want[i])
			}
		}
	}
}

func TestIm2ColU8PadsWithZeroPoint(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := []uint8{10, 20, 30, 40}
	dst := make([]uint8, g.PatchRows()*g.PatchCols())
	const zp = 128
	Im2ColU8(in, g, dst, zp)
	// Top-left output position, top-left kernel tap hits padding.
	if dst[0] != zp {
		t.Errorf("padding tap = %d, want zero point %d", dst[0], zp)
	}
	// Center tap (kh=1,kw=1) row: all four outputs align with the input.
	centerRow := dst[4*g.PatchCols() : 5*g.PatchCols()]
	for i, want := range in {
		if centerRow[i] != want {
			t.Errorf("center tap out %d = %d, want %d", i, centerRow[i], want)
		}
	}
}

func TestIm2ColF16MatchesF32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := ConvGeom{InC: 2, InH: 7, InW: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}
	inF := randF32(g.InC*g.InH*g.InW, rng)
	inH := f16.FromSlice32(inF)
	pf := make([]float32, g.PatchRows()*g.PatchCols())
	ph := make([]f16.F16, g.PatchRows()*g.PatchCols())
	im2col(inF, g, pf, 0)
	Im2ColF16(inH, g, ph)
	for i := range pf {
		if ph[i] != f16.FromFloat32(pf[i]) {
			t.Fatalf("elem %d differs", i)
		}
	}
}

// degenerateShapes are the panel-boundary cases the tiled kernels must
// get right: single elements, row counts below one panel, k=1, and
// widths with and without the QUInt8 operand's odd byte column (the
// SWAR kernel pairs columns), and the GEMV case.
func degenerateShapes() [][3]int {
	return [][3]int{
		{1, 1, 1},
		{3, 5, 1},    // m < mr, GEMV
		{2, 1, 9},    // k = 1, odd n
		{4, 7, 3},    // one word column plus the byte column
		{5, 9, 7},    // ragged everything
		{8, 16, 12},  // even n: word columns only
		{33, 2, 17},  // m just past 32 rows (four panels): a one-row tail panel
		{31, 3, 2},   // m just below 32 rows: a seven-row tail panel, a single word column
		{65, 64, 63}, // every dimension off its block size
	}
}

func TestTiledDegenerateShapesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, s := range degenerateShapes() {
		m, k, n := s[0], s[1], s[2]

		af, bf := randF32(m*k, rng), randF32(k*n, rng)
		gotF, wantF := make([]float32, m*n), make([]float32, m*n)
		f32GEMM(PackAF32(af, m, k), bf, gotF, n)
		F32Ref(af, bf, wantF, m, k, n)
		for i := range gotF {
			if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
				t.Fatalf("f32 shape %v elem %d: %v vs %v", s, i, gotF[i], wantF[i])
			}
		}

		ah, bh := f16.FromSlice32(af), f16.FromSlice32(bf)
		gotH, wantH := make([]f16.F16, m*n), make([]f16.F16, m*n)
		f16GEMM(PackAF16(ah, m, k), bh, gotH, n)
		F16Ref(ah, bh, wantH, m, k, n)
		for i := range gotH {
			if gotH[i] != wantH[i] {
				t.Fatalf("f16 shape %v elem %d: %#04x vs %#04x", s, i, gotH[i], wantH[i])
			}
		}

		au, bu := randU8(m*k, rng), randU8(k*n, rng)
		za, zb := int32(rng.Intn(256)), int32(rng.Intn(256))
		gotQ, wantQ := make([]int32, m*n), make([]int32, m*n)
		qGEMM(PackAU8(au, m, k), bu, gotQ, n, za, zb)
		QGEMMRef(au, bu, wantQ, m, k, n, za, zb)
		for i := range gotQ {
			if gotQ[i] != wantQ[i] {
				t.Fatalf("q shape %v zp(%d,%d) elem %d: %d vs %d", s, za, zb, i, gotQ[i], wantQ[i])
			}
		}
	}
}

// Under forceRef every entry point takes its oracle-loop branch — the
// matrix wrappers through the conv entries — and must still return the
// reference result (TestGoldenTiledKernelsMatchRefKernels compares
// whole models through these branches).
func TestForceRefRoutesToReference(t *testing.T) {
	defer func() { forceRef = false }()
	rng := rand.New(rand.NewSource(41))
	m, k, n := 6, 10, 5
	a, b := randF32(m*k, rng), randF32(k*n, rng)
	want := make([]float32, m*n)
	F32Ref(a, b, want, m, k, n)
	ah, bh := f16.FromSlice32(a), f16.FromSlice32(b)
	wantH := make([]f16.F16, m*n)
	F16Ref(ah, bh, wantH, m, k, n)
	au, bu := randU8(m*k, rng), randU8(k*n, rng)
	wantQ := make([]int32, m*n)
	QGEMMRef(au, bu, wantQ, m, k, n, 5, 77)
	var lut [256]float32
	for q := range lut {
		lut[q] = f16.FromFloat32(float32(q-77) / 32).Float32()
	}
	wantLUT := make([]f16.F16, m*n)
	for i, v := range bu {
		bh[i] = f16.FromFloat32(lut[v])
	}
	F16Ref(ah, bh, wantLUT, m, k, n)
	bh = f16.FromSlice32(b)

	forceRef = true
	got := make([]float32, m*n)
	f32GEMM(PackAF32(a, m, k), b, got, n)
	gotH := make([]f16.F16, m*n)
	F16GEMM(ah, bh, gotH, m, k, n)
	gotQ := make([]int32, m*n)
	QGEMM(au, bu, gotQ, m, k, n, 5, 77)
	gotLUT := make([]f16.F16, m*n)
	ConvQViaF16(PackAF16(ah, m, k), bu, MatrixGeom(k, n), &lut, 77, func(r, j0 int, acc []float32) {
		for j, v := range acc {
			gotLUT[r*n+j0+j] = f16.FromFloat32(v)
		}
	})
	for i := range want {
		// The reference is deterministic: forced results are identical.
		if got[i] != want[i] {
			t.Fatalf("elem %d: forceRef result %v differs from ref %v", i, got[i], want[i])
		}
		if gotH[i] != wantH[i] || gotLUT[i] != wantLUT[i] {
			t.Fatalf("elem %d: forceRef f16 results differ from ref", i)
		}
		if gotQ[i] != wantQ[i] {
			t.Fatalf("elem %d: forceRef q results differ from ref", i)
		}
	}
}

func BenchmarkF32GEMM128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 128, 128, 128
	a, bb := randF32(m*k, rng), randF32(k*n, rng)
	c := make([]float32, m*n)
	b.SetBytes(int64(m * k * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f32GEMM(PackAF32(a, m, k), bb, c, n)
	}
}

func BenchmarkQGEMM128(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m, k, n := 128, 128, 128
	a, bb := randU8(m*k, rng), randU8(k*n, rng)
	acc := make([]int32, m*n)
	b.SetBytes(int64(m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QGEMM(a, bb, acc, m, k, n, 128, 128)
	}
}

func BenchmarkF16GEMM64(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m, k, n := 64, 64, 64
	a := f16.FromSlice32(randF32(m*k, rng))
	bb := f16.FromSlice32(randF32(k*n, rng))
	c := make([]f16.F16, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		F16GEMM(a, bb, c, m, k, n)
	}
}

// Tiled-vs-oracle benchmark pairs on the two workload shapes that matter
// for serving: conv-shaped (square-ish, im2col patches) and FC-shaped
// (GEMV). Run with -cpu=1 for the single-thread kernel comparison;
// perfbench's --trace 1 pass reports every conv and fc shape of the
// benchmarked model in place.
func benchQ(b *testing.B, m, k, n int, kernel func(a, bb []uint8, acc []int32, pa *PackedAU8)) {
	rng := rand.New(rand.NewSource(12))
	a, bb := randU8(m*k, rng), randU8(k*n, rng)
	acc := make([]int32, m*n)
	pa := PackAU8(a, m, k)
	b.SetBytes(int64(m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(a, bb, acc, pa)
	}
}

func BenchmarkQGEMMConvShapedRef(b *testing.B) {
	benchQ(b, 96, 1152, 784, func(a, bb []uint8, acc []int32, _ *PackedAU8) {
		QGEMMRef(a, bb, acc, 96, 1152, 784, 128, 3)
	})
}

func BenchmarkQGEMMConvShapedPacked(b *testing.B) {
	benchQ(b, 96, 1152, 784, func(_, bb []uint8, acc []int32, pa *PackedAU8) {
		qGEMM(pa, bb, acc, 784, 128, 3)
	})
}

func BenchmarkQGEMMFCShapedRef(b *testing.B) {
	benchQ(b, 1024, 4096, 1, func(a, bb []uint8, acc []int32, _ *PackedAU8) {
		QGEMMRef(a, bb, acc, 1024, 4096, 1, 128, 3)
	})
}

func BenchmarkQGEMMFCShapedPacked(b *testing.B) {
	benchQ(b, 1024, 4096, 1, func(_, bb []uint8, acc []int32, pa *PackedAU8) {
		qGEMM(pa, bb, acc, 1, 128, 3)
	})
}

// BenchmarkF32FCTail times the float GEMV of a 10-class classifier over
// 1024 features: 10 output rows fill one 8-row panel and part of a
// second, and the one column is padded to a full nr-column tile, so the
// tail panel's wasted rows and the padding columns show here (go test
// -bench F32FCTail -cpu 1).
func BenchmarkF32FCTail(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	m, k := 10, 1024
	pa := PackAF32(randF32(m*k, rng), m, k)
	in, out := randF32(k, rng), make([]float32, m)
	g := MatrixGeom(k, 1)
	b.SetBytes(int64(m * k * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvF32(pa, in, g, func(r, j0 int, row []float32) { copy(out[r+j0:], row) })
	}
}

// BenchmarkConvPack times the two quantized entry points on GoogLeNet
// layer geometries with a single row panel, so the patch gather that
// packs the right operand is about half of the time.
func BenchmarkConvPack(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	var lut [256]float32
	for i := range lut {
		lut[i] = float32(i-3) / 64
	}
	for _, c := range []struct {
		name string
		g    ConvGeom
	}{
		{"1x1/7x7x256", ConvGeom{InC: 256, InH: 7, InW: 7, KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
		{"3x3p1/14x14x48", ConvGeom{InC: 48, InH: 14, InW: 14, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{"7x7s2p3/112x112x3", ConvGeom{InC: 3, InH: 112, InW: 112, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}},
	} {
		k := c.g.PatchRows()
		in := randU8(c.g.InC*c.g.InH*c.g.InW, rng)
		pq, pf := PackAU8(randU8(mr*k, rng), mr, k), PackAF16(f16.FromSlice32(randF32(mr*k, rng)), mr, k)
		b.Run("Q/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ConvQ(pq, in, c.g, 128, 3, func(int, int, []int32) {})
			}
		})
		b.Run("QViaF16/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ConvQViaF16(pf, in, c.g, &lut, 3, func(int, int, []float32) {})
			}
		})
	}
}

// BenchmarkPackQ times packQ alone on two geometries with the same
// K = 288 and N = 784 (28×28 outputs): a 1×1 convolution over 288
// planes, whose every column panel is one contiguous run per tap pair,
// and a padded 3×3 convolution over 32 planes, whose panels are runs
// only within an output row.
func BenchmarkPackQ(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	for _, c := range []struct {
		name string
		g    ConvGeom
	}{
		{"1x1", ConvGeom{InC: 288, InH: 28, InW: 28, KH: 1, KW: 1, StrideH: 1, StrideW: 1}},
		{"3x3p1", ConvGeom{InC: 32, InH: 28, InW: 28, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	} {
		in := randU8(c.g.InC*c.g.InH*c.g.InW, rng)
		b.Run(c.name, func(b *testing.B) {
			s := new(scratch)
			n := c.g.PatchCols()
			b.SetBytes(int64(c.g.PatchRows() * n))
			for i := 0; i < b.N; i++ {
				s.packQ(newPatches(s, in, c.g, 3, &s.pu8), 128, 0, n)
			}
		})
	}
}
