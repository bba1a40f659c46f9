// Package gemm provides the GEneralized Matrix-Multiplication kernels that
// back μLayer's convolutional and fully-connected layers, for each of the
// three arithmetic pipelines of the paper:
//
//   - F32: plain single-precision (the NN default),
//   - F16: half-precision operands with per-element rounding of results,
//     modeling a GPU's native half ALUs,
//   - QUInt8: the gemmlowp integer pipeline — uint8 operands with zero
//     points, int32 accumulation, fixed-point requantization downstream.
//
// All matrices are dense row-major. The fast path packs both operands
// into panel-contiguous blocks and computes register tiles (pack.go,
// tiled.go); weight panels can be packed once per layer and reused via
// the *Packed entry points, and ConvQ/ConvQViaF16 pack the right operand
// straight from a convolution's uint8 input. The naive triple loops are
// kept as *Ref kernels — the differential oracle for the fuzz and golden
// tests, and the baseline the BENCH_gemm.json trajectory is measured
// against.
package gemm

import (
	"runtime"
	"sync"

	"mulayer/internal/f16"
)

// ForceRef routes every kernel — including the *Packed entry points —
// through the naive reference loops. It exists for differential tests
// and benchmarks only; it is not synchronized, so set it before any
// concurrent kernel use and restore it after.
var ForceRef bool

// blockM is the row-panel height used to split work across goroutines.
// It must stay a multiple of the register-tile height mr so workers
// always own whole panels of the packed grid.
const blockM = 32

// parallelRows runs fn over [0,m) in row panels on up to GOMAXPROCS
// goroutines. fn must be safe to call concurrently for disjoint panels.
func parallelRows(m int, fn func(i0, i1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > (m+blockM-1)/blockM {
		workers = (m + blockM - 1) / blockM
	}
	if workers <= 1 {
		fn(0, m)
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	go func() {
		for i := 0; i < m; i += blockM {
			next <- i
		}
		close(next)
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i0 := range next {
				i1 := i0 + blockM
				if i1 > m {
					i1 = m
				}
				fn(i0, i1)
			}
		}()
	}
	wg.Wait()
}

// F32 computes c = a·b for row-major a (m×k), b (k×n), c (m×n),
// overwriting c. The left operand is packed per call; callers that reuse
// a (layer weights) should pack once and use F32Packed.
func F32(a, b, c []float32, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	if ForceRef {
		F32Ref(a, b, c, m, k, n)
		return
	}
	F32Packed(PackAF32(a, m, k), b, c, n)
}

// F32Packed computes c = pa·b for a pre-packed left operand.
func F32Packed(pa *PackedAF32, b, c []float32, n int) {
	checkDims(pa.M*pa.K, len(b), len(c), pa.M, pa.K, n)
	if ForceRef {
		F32Ref(pa.Unpack(), b, c, pa.M, pa.K, n)
		return
	}
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	g := MatrixGeom(pa.K, n)
	fMul(s, pa.data, pa.M, pa.K, n, func(j int, col []float32) {
		patchCol(b, g, j, 0, col)
	}, func(r, j0 int, row []float32) {
		copy(c[r*n+j0:], row)
	})
}

// F32Ref is the textbook triple loop, used as the differential-testing
// reference for F32.
func F32Ref(a, b, c []float32, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// F16GEMM computes c = a·b over binary16 operands. Products and the running
// sum are kept in float32 and the final element is rounded once to
// binary16. This matches GPU half-precision kernels that accumulate dot
// products in a wider register before writing back a half result — the
// configuration under which the paper observes no accuracy loss for F16
// (Figure 10). Results are bit-identical to F16Ref.
func F16GEMM(a, b, c []f16.F16, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	if ForceRef {
		F16Ref(a, b, c, m, k, n)
		return
	}
	F16GEMMPacked(PackAF16(a, m, k), b, c, n)
}

// F16GEMMPacked computes c = pa·b for a pre-packed left operand.
func F16GEMMPacked(pa *PackedAF16, b, c []f16.F16, n int) {
	checkDims(pa.M*pa.K, len(b), len(c), pa.M, pa.K, n)
	if ForceRef {
		F16Ref(pa.Unpack(), b, c, pa.M, pa.K, n)
		return
	}
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	g, tmp := MatrixGeom(pa.K, n), grow(&s.h, pa.K)
	fMul(s, pa.data, pa.M, pa.K, n, func(j int, col []float32) {
		patchCol(b, g, j, 0, tmp)
		for l, v := range tmp {
			col[l] = v.Float32()
		}
	}, func(r, j0 int, row []float32) {
		d := c[r*n+j0:]
		for j, v := range row {
			d[j] = f16.FromFloat32(v)
		}
	})
}

// F16Ref is the naive reference for F16GEMM.
func F16Ref(a, b, c []f16.F16, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += a[i*k+l].Float32() * b[l*n+j].Float32()
			}
			c[i*n+j] = f16.FromFloat32(s)
		}
	}
}

// QGEMM computes the int32 accumulator matrix of the gemmlowp pipeline:
//
//	acc[i,j] = Σ_l (a[i,l] − za) · (b[l,j] − zb)
//
// for uint8 operands with zero points za and zb. The caller feeds acc
// through a quant.Requantizer (plus bias) to obtain uint8 outputs.
// Results are bit-identical to QGEMMRef (int32 addition wraps, so the
// tiled kernel's zero-point decomposition is exact mod 2³²).
func QGEMM(a, b []uint8, acc []int32, m, k, n int, za, zb int32) {
	checkDims(len(a), len(b), len(acc), m, k, n)
	if ForceRef {
		QGEMMRef(a, b, acc, m, k, n, za, zb)
		return
	}
	QGEMMPacked(PackAU8(a, m, k), b, acc, n, za, zb)
}

// QGEMMPacked computes the accumulator matrix for a pre-packed left
// operand (za is the packed operand's zero point, zb the right one's).
func QGEMMPacked(pa *PackedAU8, b []uint8, acc []int32, n int, za, zb int32) {
	checkDims(pa.M*pa.K, len(b), len(acc), pa.M, pa.K, n)
	if ForceRef {
		QGEMMRef(pa.Unpack(), b, acc, pa.M, pa.K, n, za, zb)
		return
	}
	qMul(pa, b, MatrixGeom(pa.K, n), za, zb, func(r, j0 int, row []int32) {
		copy(acc[r*n+j0:], row)
	})
}

// ConvQ is QGEMMPacked against the im2col patch matrix of one uint8 batch
// element in (geometry g, zero point zb, which also fills padding taps),
// packed straight from the input: no patch matrix is materialized. The
// (pa.M × g.PatchCols()) accumulator matrix is handed to epi in finished
// row segments — acc holds row r's columns [j0, j0+len(acc)) — called
// concurrently for distinct rows; acc is only valid during the call.
// Results are bit-identical to Im2ColU8 + QGEMMRef.
func ConvQ(pa *PackedAU8, in []uint8, g ConvGeom, za, zb int32, epi func(r, j0 int, acc []int32)) {
	checkConv(pa.M, pa.K, len(in), g)
	if ForceRef {
		patches := make([]uint8, g.PatchRows()*g.PatchCols())
		Im2ColU8(in, g, patches, uint8(zb))
		n := g.PatchCols()
		acc := make([]int32, pa.M*n)
		QGEMMRef(pa.Unpack(), patches, acc, pa.M, pa.K, n, za, zb)
		for r := 0; r < pa.M; r++ {
			epi(r, 0, acc[r*n:(r+1)*n])
		}
		return
	}
	qMul(pa, in, g, za, zb, epi)
}

// ConvQViaF16 is the F16 GEMM of the GPU half of processor-friendly
// quantization against one uint8 batch element in: every input byte is
// widened through lut (lut[q] = the binary16 dequantization of q, as a
// float32) while the column operand is packed straight from the input.
// Padding taps read lut[zb]; for the input zero point zb that is +0, the
// same as Im2ColF16's padding. epi receives finished row segments of
// float32 sums as ConvQ's does, and rounds them to binary16 itself
// (F16Ref's single rounding). Results are bit-identical to Im2ColF16 of
// the widened input + F16Ref.
func ConvQViaF16(pa *PackedAF16, in []uint8, g ConvGeom, lut *[256]float32, zb uint8, epi func(r, j0 int, acc []float32)) {
	checkConv(pa.M, pa.K, len(in), g)
	n := g.PatchCols()
	if ForceRef {
		hin := make([]f16.F16, len(in))
		for i, v := range in {
			hin[i] = f16.FromFloat32(lut[v])
		}
		patches := make([]f16.F16, g.PatchRows()*n)
		Im2ColF16(hin, g, patches)
		c := make([]f16.F16, pa.M*n)
		F16Ref(pa.Unpack(), patches, c, pa.M, pa.K, n)
		row := make([]float32, n)
		for r := 0; r < pa.M; r++ {
			for j, v := range c[r*n : (r+1)*n] {
				row[j] = v.Float32()
			}
			epi(r, 0, row)
		}
		return
	}
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	tmp := grow(&s.u8[0], pa.K)
	fMul(s, pa.data, pa.M, pa.K, n, func(j int, col []float32) {
		patchCol(in, g, j, zb, tmp)
		for l, v := range tmp {
			col[l] = lut[v]
		}
	}, epi)
}

// QGEMMRef is the naive reference for QGEMM.
func QGEMMRef(a, b []uint8, acc []int32, m, k, n int, za, zb int32) {
	checkDims(len(a), len(b), len(acc), m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for l := 0; l < k; l++ {
				s += (int32(a[i*k+l]) - za) * (int32(b[l*n+j]) - zb)
			}
			acc[i*n+j] = s
		}
	}
}

func checkConv(m, k, lin int, g ConvGeom) {
	if k != g.PatchRows() {
		panic("gemm: packed operand width != conv patch rows")
	}
	if m <= 0 || g.OutH() <= 0 || g.OutW() <= 0 {
		panic("gemm: non-positive dimension")
	}
	if lin < g.InC*g.InH*g.InW {
		panic("gemm: buffer too small for dimensions")
	}
}

func checkDims(la, lb, lc, m, k, n int) {
	if m <= 0 || k <= 0 || n <= 0 {
		panic("gemm: non-positive dimension")
	}
	if la < m*k || lb < k*n || lc < m*n {
		panic("gemm: buffer too small for dimensions")
	}
}
