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
// Every pipeline has one conv-shaped entry point — ConvF32, ConvF16,
// ConvQ and ConvQViaF16 — that multiplies a weight matrix packed once per
// layer (pack.go) by the im2col patch matrix of one input, packing that
// operand straight from the input and handing finished result strips to
// the caller's epilogue (tiled.go). A plain matrix is the patch matrix of
// MatrixGeom, so the matrix forms QGEMM and F16GEMM are thin wrappers and
// a fully-connected layer is the 1×1 convolution of §2.1. The naive
// triple loops are kept as *Ref kernels — the differential oracle for the
// fuzz and golden tests, and the baseline the BENCH_gemm.json trajectory
// is measured against.
package gemm

import (
	"runtime"
	"sync"

	"mulayer/internal/f16"
)

// ForceRef routes every kernel through the naive reference loops: the
// Conv* entry points check it, and the matrix wrappers reach it through
// them. It exists for differential tests
// and benchmarks only; it is not synchronized, so set it before any
// concurrent kernel use and restore it after.
var ForceRef bool

// blockM is the row-panel height used to split work across goroutines.
// It must stay a multiple of the register-tile height mr so workers
// always own whole panels of the packed grid.
const blockM = 32

// rowJob is work that parallelRows shards by row panels: rows must be
// safe to call concurrently for disjoint panels [i0,i1).
type rowJob interface{ rows(i0, i1 int) }

// parallelRows runs job over [0,m) in row panels on up to GOMAXPROCS
// goroutines.
func parallelRows(m int, job rowJob) {
	workers := runtime.GOMAXPROCS(0)
	if workers > (m+blockM-1)/blockM {
		workers = (m + blockM - 1) / blockM
	}
	if workers <= 1 {
		job.rows(0, m)
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
				job.rows(i0, min(i0+blockM, m))
			}
		}()
	}
	wg.Wait()
}

// ConvF32 multiplies pa by the im2col patch matrix of one float32 batch
// element in (geometry g), packed straight from the input with +0 for
// padding taps: no patch matrix is materialized. The (pa.M ×
// g.PatchCols()) result is handed to epi in finished row segments — row
// holds row r's columns [j0, j0+len(row)) — called concurrently for
// distinct rows; row is only valid during the call. The tile accumulates
// each element in the reference's ascending-k order, so results are
// bit-identical to im2col + F32Ref.
func ConvF32(pa *PackedAF32, in []float32, g ConvGeom, epi func(r, j0 int, row []float32)) {
	checkConv(pa.M, pa.K, len(in), g)
	if ForceRef {
		patches := make([]float32, g.PatchRows()*g.PatchCols())
		im2col(in, g, patches, 0)
		refRows(pa.M, g.PatchCols(), epi, func(c []float32) { F32Ref(pa.Unpack(), patches, c, pa.M, pa.K, g.PatchCols()) })
		return
	}
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	p := newPatches(s, in, g, 0, &s.pf32)
	fMul(s, pa.data, pa.M, pa.K, g.PatchCols(), func(j int, col []float32) {
		src := p.in[p.at[j]:]
		for l, o := range p.off {
			col[l] = src[o]
		}
	}, epi)
}

// ConvF16 is ConvF32 over binary16 operands: products and the running sum
// are kept in float32, and epi receives the float32 sums, which it rounds
// to binary16 itself. A single rounding of a wider accumulator matches
// GPU half-precision kernels that accumulate dot products in a wider
// register before writing back a half result — the configuration under
// which the paper observes no accuracy loss for F16 (Figure 10). Results
// are bit-identical to im2col + F16Ref.
func ConvF16(pa *PackedAF16, in []f16.F16, g ConvGeom, epi func(r, j0 int, row []float32)) {
	checkConv(pa.M, pa.K, len(in), g)
	if ForceRef {
		refF16(pa, in, g, epi)
		return
	}
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	p := newPatches(s, in, g, 0, &s.ph)
	fMul(s, pa.data, pa.M, pa.K, g.PatchCols(), func(j int, col []float32) {
		src := p.in[p.at[j]:]
		for l, o := range p.off {
			col[l] = src[o].Float32()
		}
	}, epi)
}

// F16GEMM computes c = a·b over row-major binary16 operands (m×k times
// k×n): ConvF16 on the matrix itself, rounding each sum to binary16.
// Results are bit-identical to F16Ref.
func F16GEMM(a, b, c []f16.F16, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	ConvF16(PackAF16(a, m, k), b, MatrixGeom(k, n), func(r, j0 int, row []float32) {
		for j, v := range row {
			c[r*n+j0+j] = f16.FromFloat32(v)
		}
	})
}

// F32Ref is the textbook triple loop, the differential-testing reference
// for ConvF32. Each product is rounded to float32 before it is added: the
// explicit conversion forbids fusing the two into an FMA, which arm64
// would otherwise emit, so every architecture computes the same bits.
func F32Ref(a, b, c []float32, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += float32(a[i*k+l] * b[l*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// F16Ref is the naive reference for ConvF16 and F16GEMM, with F32Ref's
// unfused products.
func F16Ref(a, b, c []f16.F16, m, k, n int) {
	checkDims(len(a), len(b), len(c), m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += float32(a[i*k+l].Float32() * b[l*n+j].Float32())
			}
			c[i*n+j] = f16.FromFloat32(s)
		}
	}
}

// QGEMM computes the int32 accumulator matrix of the gemmlowp pipeline:
//
//	acc[i,j] = Σ_l (a[i,l] − za) · (b[l,j] − zb)
//
// for uint8 operands with zero points za and zb: ConvQ on the matrix
// itself. The caller feeds acc through a quant.Requantizer (plus bias) to
// obtain uint8 outputs. Results are bit-identical to QGEMMRef (int32
// addition wraps, so the tiled kernel's zero-point decomposition is exact
// mod 2³²).
func QGEMM(a, b []uint8, acc []int32, m, k, n int, za, zb int32) {
	checkDims(len(a), len(b), len(acc), m, k, n)
	ConvQ(PackAU8(a, m, k), b, MatrixGeom(k, n), za, zb, func(r, j0 int, row []int32) { copy(acc[r*n+j0:], row) })
}

// ConvQ is the QUInt8 GEMM of pa (za is its zero point) against the im2col
// patch matrix of one uint8 batch element in (geometry g, zero point zb,
// which also fills padding taps), packed straight from the input. The
// accumulators reach epi as ConvF32's results do. Results are
// bit-identical to Im2ColU8 + QGEMMRef.
func ConvQ(pa *PackedAU8, in []uint8, g ConvGeom, za, zb int32, epi func(r, j0 int, acc []int32)) {
	checkConv(pa.M, pa.K, len(in), g)
	if ForceRef {
		patches := make([]uint8, g.PatchRows()*g.PatchCols())
		Im2ColU8(in, g, patches, uint8(zb))
		refRows(pa.M, g.PatchCols(), epi, func(acc []int32) {
			QGEMMRef(pa.Unpack(), patches, acc, pa.M, pa.K, g.PatchCols(), za, zb)
		})
		return
	}
	qMul(pa, in, g, za, zb, epi)
}

// ConvQViaF16 is the F16 GEMM of the GPU half of processor-friendly
// quantization against one uint8 batch element in: every input byte is
// widened through lut (lut[q] = the binary16 dequantization of q, as a
// float32) while the column operand is packed straight from the input.
// Padding taps read lut[zb]; for the input zero point zb that is +0, the
// same as ConvF16's padding. epi receives float32 sums as ConvF16's does.
// Results are bit-identical to Im2ColF16 of the widened input + F16Ref.
func ConvQViaF16(pa *PackedAF16, in []uint8, g ConvGeom, lut *[256]float32, zb uint8, epi func(r, j0 int, acc []float32)) {
	checkConv(pa.M, pa.K, len(in), g)
	if ForceRef {
		hin := make([]f16.F16, len(in))
		for i, v := range in {
			hin[i] = f16.FromFloat32(lut[v])
		}
		refF16(pa, hin, g, epi)
		return
	}
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	p := newPatches(s, in, g, zb, &s.pu8)
	fMul(s, pa.data, pa.M, pa.K, g.PatchCols(), func(j int, col []float32) {
		src, lt, l := p.in[p.at[j]:], lut[:], 0
		for ; l+4 <= len(p.off); l += 4 {
			o, c := p.off[l:l+4:l+4], col[l:l+4:l+4]
			c[0], c[1], c[2], c[3] = lt[src[o[0]]], lt[src[o[1]]], lt[src[o[2]]], lt[src[o[3]]]
		}
		for ; l < len(p.off); l++ {
			col[l] = lt[src[p.off[l]]]
		}
	}, epi)
}

// refRows runs a reference kernel into an m×n result and hands it to epi
// row by row: the ForceRef branch of every Conv* entry point.
func refRows[T any](m, n int, epi func(r, j0 int, row []T), ref func(c []T)) {
	c := make([]T, m*n)
	ref(c)
	for r := 0; r < m; r++ {
		epi(r, 0, c[r*n:(r+1)*n])
	}
}

// refF16 is the ForceRef branch of the F16 entry points: im2col and
// F16Ref, with the binary16 results widened to the float32 rows the F16
// epilogues round (exactly) back.
func refF16(pa *PackedAF16, in []f16.F16, g ConvGeom, epi func(r, j0 int, row []float32)) {
	n := g.PatchCols()
	patches := make([]f16.F16, g.PatchRows()*n)
	im2col(in, g, patches, 0)
	refRows(pa.M, n, epi, func(c []float32) {
		h := make([]f16.F16, len(c))
		F16Ref(pa.Unpack(), patches, h, pa.M, pa.K, n)
		for i, v := range h {
			c[i] = v.Float32()
		}
	})
}

// QGEMMRef is the naive reference for ConvQ and QGEMM.
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
