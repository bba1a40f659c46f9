package gemm

import (
	"math"
	"math/rand"
	"testing"

	"mulayer/internal/f16"
	"mulayer/internal/quant"
)

// Differential fuzzing of the packed/tiled kernels against the naive
// *Ref oracles. The fuzzer drives the shape (m,k,n), the zero points,
// and the data seed; each execution multiplies through the conv entry
// points at MatrixGeom, so operand packing, the column tails narrower
// than a tile, the odd-k pair padding, and the zero-point decomposition
// are all under test, bit for bit. Seed corpus pins the degenerate
// shapes: 1×1×1, m below a single panel, k=1, and n off the tile width.

// fuzzShape folds fuzzer bytes into a shape that exercises panel
// boundaries: sizes span 1..48, crossing mr/blockM edges and both
// parities of k (the QUInt8 pack pairs k steps) and every n mod nr.
func fuzzShape(ms, ks, ns uint8) (m, k, n int) {
	return int(ms%48) + 1, int(ks%48) + 1, int(ns%48) + 1
}

func FuzzF32(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1))    // 1×1×1
	f.Add(uint8(2), uint8(16), uint8(4), int64(2))   // m < blockM panel
	f.Add(uint8(32), uint8(0), uint8(31), int64(3))  // k = 1
	f.Add(uint8(37), uint8(21), uint8(6), int64(4))  // m % mr != 0
	f.Add(uint8(47), uint8(47), uint8(47), int64(5)) // near-max everything
	f.Fuzz(func(t *testing.T, ms, ks, ns uint8, seed int64) {
		m, k, n := fuzzShape(ms, ks, ns)
		rng := rand.New(rand.NewSource(seed))
		a, b := randF32(m*k, rng), randF32(k*n, rng)
		want := make([]float32, m*n)
		F32Ref(a, b, want, m, k, n)
		// The tile accumulates in the reference's order, so F32 results
		// must be bit-identical, not merely close.
		got := make([]float32, m*n)
		f32GEMM(PackAF32(a, m, k), b, got, n)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("shape (%d,%d,%d) elem %d: %v vs %v", m, k, n, i, got[i], want[i])
			}
		}
	})
}

func FuzzF16GEMM(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(2), uint8(16), uint8(4), int64(2))
	f.Add(uint8(32), uint8(0), uint8(31), int64(3))
	f.Add(uint8(37), uint8(21), uint8(6), int64(4))
	f.Add(uint8(47), uint8(47), uint8(47), int64(5))
	f.Fuzz(func(t *testing.T, ms, ks, ns uint8, seed int64) {
		m, k, n := fuzzShape(ms, ks, ns)
		rng := rand.New(rand.NewSource(seed))
		a := f16.FromSlice32(randF32(m*k, rng))
		b := f16.FromSlice32(randF32(k*n, rng))
		want := make([]f16.F16, m*n)
		F16Ref(a, b, want, m, k, n)
		// The tiled kernel accumulates in the reference's order, so F16
		// results must be bit-identical, not merely close.
		got := make([]f16.F16, m*n)
		F16GEMM(a, b, got, m, k, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shape (%d,%d,%d) elem %d: %#04x vs %#04x", m, k, n, i, got[i], want[i])
			}
		}
	})
}

func FuzzQGEMM(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(2), uint8(16), uint8(4), uint8(128), uint8(128), int64(2))
	f.Add(uint8(32), uint8(0), uint8(31), uint8(255), uint8(0), int64(3))
	f.Add(uint8(37), uint8(21), uint8(7), uint8(1), uint8(254), int64(4)) // n = 8: two full tiles
	f.Add(uint8(47), uint8(47), uint8(47), uint8(100), uint8(200), int64(5))
	f.Add(uint8(5), uint8(2), uint8(0), uint8(0), uint8(255), int64(6))    // odd k, n = 1 (a GEMV)
	f.Add(uint8(8), uint8(6), uint8(1), uint8(255), uint8(0), int64(7))    // odd k, n = 2
	f.Add(uint8(3), uint8(10), uint8(2), uint8(255), uint8(255), int64(8)) // odd k, n = 3
	f.Add(uint8(12), uint8(20), uint8(4), uint8(9), uint8(77), int64(9))   // odd k, n = 5: a tile plus one column
	f.Fuzz(func(t *testing.T, ms, ks, ns, zas, zbs uint8, seed int64) {
		m, k, n := fuzzShape(ms, ks, ns)
		za, zb := int32(zas), int32(zbs)
		rng := rand.New(rand.NewSource(seed))
		a, b := randU8(m*k, rng), randU8(k*n, rng)
		want := make([]int32, m*n)
		QGEMMRef(a, b, want, m, k, n, za, zb)
		// Integer accumulation wraps, so the decomposed tiled kernel
		// must agree bit-for-bit with the oracle at every tile level.
		eachTileLevel(func(lv tileLevel) {
			got := make([]int32, m*n)
			QGEMM(a, b, got, m, k, n, za, zb)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s shape (%d,%d,%d) zp(%d,%d) elem %d: %d vs %d", lv.name, m, k, n, za, zb, i, got[i], want[i])
				}
			}
		})
	})
}

// FuzzConvPack checks the fused pack-from-input entry points against the
// unfused chain: Im2ColU8 + QGEMMRef for the CPU half, the input
// dequantized to binary16 + Im2ColF16 + F16Ref for the GPU half, and
// im2col + F32Ref / F16Ref for the pure float pipelines, bit for bit,
// over random geometry, stride, padding, zero point and output-channel
// range [c0,c1) of the packed weights, at every tile level the host runs.
func FuzzConvPack(f *testing.F) {
	f.Add(uint8(3), uint8(9), uint8(9), uint8(3), uint8(3), uint8(0), uint8(1), uint8(128), uint8(0), uint8(5), int64(1))  // padded 3×3
	f.Add(uint8(2), uint8(11), uint8(10), uint8(7), uint8(7), uint8(1), uint8(3), uint8(3), uint8(2), uint8(4), int64(2))  // strided 7×7
	f.Add(uint8(5), uint8(4), uint8(6), uint8(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(1), uint8(2), int64(3))  // pointwise
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), int64(4))    // all padding but one tap
	f.Add(uint8(0), uint8(2), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), uint8(77), uint8(0), uint8(8), int64(5))   // k = 9, n = 1
	f.Add(uint8(2), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(3), uint8(3), int64(6))  // k = 3, n = 2
	f.Add(uint8(0), uint8(2), uint8(4), uint8(2), uint8(2), uint8(0), uint8(0), uint8(1), uint8(2), uint8(6), int64(7))    // k = 9, n = 3
	f.Add(uint8(2), uint8(0), uint8(4), uint8(0), uint8(2), uint8(0), uint8(4), uint8(200), uint8(1), uint8(7), int64(8))  // k = 9, n = 5, padded
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(2), uint8(4), uint8(0), uint8(9), uint8(0), uint8(3), int64(9))    // 3×3 window over a 2×2 input
	f.Add(uint8(0), uint8(0), uint8(0), uint8(3), uint8(3), uint8(4), uint8(5), uint8(250), uint8(2), uint8(5), int64(10)) // 4×4 window over a padded 3×3
	f.Fuzz(func(t *testing.T, cs, hs, ws, khs, kws, ss, ps, zs, c0s, c1s uint8, seed int64) {
		g := ConvGeom{
			InC: int(cs%6) + 1, InH: int(hs%12) + 1, InW: int(ws%12) + 1,
			KH: int(khs%7) + 1, KW: int(kws%7) + 1,
			StrideH: int(ss%3) + 1, StrideW: int(ss/3%3) + 1,
			PadH: int(ps % 4), PadW: int(ps / 4 % 4),
		}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			return
		}
		outC := 9
		c0, c1 := int(c0s)%outC, int(c1s)%outC
		if c0 > c1 {
			c0, c1 = c1, c0
		}
		c1++
		m, k, n := c1-c0, g.PatchRows(), g.PatchCols()
		rng := rand.New(rand.NewSource(seed))
		in, w := randU8(g.InC*g.InH*g.InW, rng), randU8(outC*k, rng)
		zb, za := zs, int32(rng.Intn(256))

		// The unfused chains, computed once.
		patches := make([]uint8, k*n)
		Im2ColU8(in, g, patches, zb)
		want := make([]int32, m*n)
		QGEMMRef(w[c0*k:c1*k], patches, want, m, k, n, za, int32(zb))
		// GPU half: the table is the input grid's binary16 dequantization.
		p := quant.Params{Scale: float32(rng.Float64()*0.1 + 1e-3), ZeroPoint: zb}
		var lut [256]float32
		for q := range lut {
			lut[q] = f16.FromFloat32(p.Dequantize(uint8(q))).Float32()
		}
		hin := make([]f16.F16, len(in))
		for i, v := range in {
			hin[i] = f16.FromFloat32(p.Dequantize(v))
		}
		hpatches := make([]f16.F16, k*n)
		Im2ColF16(hin, g, hpatches)
		wh := f16.FromSlice32(randF32(outC*k, rng))
		wantQH := make([]f16.F16, m*n)
		F16Ref(wh[c0*k:c1*k], hpatches, wantQH, m, k, n)
		// Pure float pipelines: +0 padding, float32 or binary16 operands.
		inF, wf := randF32(len(in), rng), randF32(outC*k, rng)
		fpatches := make([]float32, k*n)
		im2col(inF, g, fpatches, 0)
		wantF := make([]float32, m*n)
		F32Ref(wf[c0*k:c1*k], fpatches, wantF, m, k, n)
		inH := f16.FromSlice32(inF)
		im2col(inH, g, hpatches, 0)
		wantH := make([]f16.F16, m*n)
		F16Ref(wh[c0*k:c1*k], hpatches, wantH, m, k, n)

		eachTileLevel(func(lv tileLevel) {
			got := make([]int32, m*n)
			ConvQ(PackAU8(w[c0*k:c1*k], m, k), in, g, za, int32(zb), func(r, j0 int, acc []int32) {
				copy(got[r*n+j0:], acc)
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s ConvQ %+v [%d,%d) zp(%d,%d) elem %d: %d vs %d", lv.name, g, c0, c1, za, zb, i, got[i], want[i])
				}
			}
			gotH := make([]f16.F16, m*n)
			ConvQViaF16(PackAF16(wh[c0*k:c1*k], m, k), in, g, &lut, zb, func(r, j0 int, acc []float32) {
				for j, v := range acc {
					gotH[r*n+j0+j] = f16.FromFloat32(v)
				}
			})
			for i := range wantQH {
				if gotH[i] != wantQH[i] {
					t.Fatalf("%s ConvQViaF16 %+v [%d,%d) zp %d elem %d: %#04x vs %#04x", lv.name, g, c0, c1, zb, i, gotH[i], wantQH[i])
				}
			}
			gotF := make([]float32, m*n)
			ConvF32(PackAF32(wf[c0*k:c1*k], m, k), inF, g, func(r, j0 int, row []float32) {
				copy(gotF[r*n+j0:], row)
			})
			ConvF16(PackAF16(wh[c0*k:c1*k], m, k), inH, g, func(r, j0 int, row []float32) {
				for j, v := range row {
					gotH[r*n+j0+j] = f16.FromFloat32(v)
				}
			})
			for i := range wantF {
				if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) || gotH[i] != wantH[i] {
					t.Fatalf("%s ConvF32/ConvF16 %+v [%d,%d) elem %d: %v vs %v, %#04x vs %#04x", lv.name, g, c0, c1, i, gotF[i], wantF[i], gotH[i], wantH[i])
				}
			}
		})
	})
}
