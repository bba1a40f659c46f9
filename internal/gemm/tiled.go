package gemm

import (
	"sync"

	"mulayer/internal/f16"
)

// Register-tiled micro-kernels over packed operands.
//
// The drivers here implement the GotoBLAS/gemmlowp loop structure scaled
// to what pure Go can exploit: the weight operand arrives packed into
// mr-row panels (pack.go), the streaming operand is packed per call into
// contiguous columns straight from its source (patchCol: the im2col
// gather is fused into the pack, so no K×N patch matrix is written), and
// the inner loops compute one mr-row tile per column stream. Row panels
// are sharded across goroutines by parallelRows, whose blockM stride is a
// multiple of mr, so workers always own whole panels of the packed grid.
// Each finished mr-row strip of a column block is handed to the caller's
// epilogue row by row, so bias, activation and requantization run on a
// strip that is still in cache instead of on a second pass over a full
// result.
//
// Tile shapes were picked by reading the compiler's output (go tool
// objdump): Go's register allocator keeps a loop spill-free only while
// its accumulators, operands and loop state fit the 16 general-purpose
// (or 16 XMM) registers. The one-column tiles below — 4 float32
// accumulators, or 4 uint64 SWAR accumulators carrying 2 columns each —
// have no stack reference in their inner loop; wider tiles (4×4 float,
// 4×8 int32, two-pass 4×2 forms) spill inside it.
//
// Float kernels accumulate each c[i,j] in one float32 accumulator in
// ascending-k order — exactly the reference kernels' order — so F32 and
// F16 results stay bit-identical to F32Ref and F16Ref.

const (
	// mr is the register-tile height (packed A panel height).
	mr = 4
	// swarMaxK is the longest k run a SWAR accumulator can sum exactly:
	// each lane adds products of at most 255·255, and the low lane must
	// stay below 2³² so it never carries into the high one, so
	// k·255² < 2³² ⇔ k ≤ 66051. swarTile chunks longer k at this bound.
	swarMaxK = (1<<32 - 1) / (255 * 255)
)

// f32Dot computes one mr×1 tile: the dot products of the panel's four
// rows with one packed column, each in a single ascending-k accumulator.
// Like swarDot it stays a call: inlined into fMul's column loop, the k
// loop spills its index on every step.
//
//go:noinline
func f32Dot(panel [][mr]float32, col []float32) (c0, c1, c2, c3 float32) {
	panel = panel[:len(col)]
	for l, b := range col {
		a := &panel[l]
		c0 += a[0] * b
		c1 += a[1] * b
		c2 += a[2] * b
		c3 += a[3] * b
	}
	return
}

// swarDot computes one mr×2 QUInt8 tile with one 64-bit multiply-add per
// row and k step: word l packs b[l,j] in its low 32-bit lane and
// b[l,j+1] in its high lane, so a·word adds a·b[l,j] to the low lane and
// a·b[l,j+1] to the high one. len(words) ≤ swarMaxK keeps the lanes apart.
// Inlined into swarTile's chunk loop, the loop would reload the chunk
// loop's state from the stack on every k step, so it stays a call.
//
//go:noinline
func swarDot(panel [][mr]uint8, words []uint64) (c0, c1, c2, c3 uint64) {
	panel = panel[:len(words)]
	for l, b := range words {
		a := &panel[l]
		c0 += uint64(a[0]) * b
		c1 += uint64(a[1]) * b
		c2 += uint64(a[2]) * b
		c3 += uint64(a[3]) * b
	}
	return
}

// swarTile returns the raw sums Σ_l a·b of the panel's rows with the two
// columns of one word column: lo for the even column, hi for the odd.
// Each chunk's lanes are exact, and adding chunks in int32 wraps mod 2³²
// exactly as the reference's int32 accumulators do.
func swarTile(panel [][mr]uint8, words []uint64) (lo, hi [mr]int32) {
	for len(words) > 0 {
		c := min(len(words), swarMaxK)
		c0, c1, c2, c3 := swarDot(panel[:c], words[:c])
		for r, v := range [mr]uint64{c0, c1, c2, c3} {
			lo[r] += int32(uint32(v))
			hi[r] += int32(uint32(v >> 32))
		}
		panel, words = panel[c:], words[c:]
	}
	return
}

// qDot computes the raw sums of the panel's rows with one byte column
// (the odd last column of a QUInt8 operand, or a GEMV's only one),
// unrolled 4× over k. Integer addition wraps, so the regrouped sums are
// bit-identical to the reference.
func qDot(panel [][mr]uint8, col []uint8) (s0, s1, s2, s3 int32) {
	panel = panel[:len(col)]
	l := 0
	for ; l+4 <= len(col); l += 4 {
		a, b := panel[l:l+4:l+4], col[l:l+4:l+4]
		b0, b1, b2, b3 := int32(b[0]), int32(b[1]), int32(b[2]), int32(b[3])
		s0 += int32(a[0][0])*b0 + int32(a[1][0])*b1 + int32(a[2][0])*b2 + int32(a[3][0])*b3
		s1 += int32(a[0][1])*b0 + int32(a[1][1])*b1 + int32(a[2][1])*b2 + int32(a[3][1])*b3
		s2 += int32(a[0][2])*b0 + int32(a[1][2])*b1 + int32(a[2][2])*b2 + int32(a[3][2])*b3
		s3 += int32(a[0][3])*b0 + int32(a[1][3])*b1 + int32(a[2][3])*b2 + int32(a[3][3])*b3
	}
	for ; l < len(col); l++ {
		a, v := &panel[l], int32(col[l])
		s0 += int32(a[0]) * v
		s1 += int32(a[1]) * v
		s2 += int32(a[2]) * v
		s3 += int32(a[3]) * v
	}
	return
}

// scratch is the working memory of one kernel call: the packed right
// operand, gathered patch columns and the accumulator strip. It is dead
// the moment the call returns, so it comes from a pool instead of fresh
// allocations or per-layer fields; sync.Pool drops objects that stay idle
// through a GC cycle, so scratch never pins memory on a layer or runtime.
type scratch struct {
	words []uint64
	f32   []float32
	i32   []int32
	u8    [2][]uint8
	h     []f16.F16
}

// operands holds packed right operands; strips holds the per-worker
// accumulator strips. Two pools, so neither role grows the other's
// buffers.
var operands, strips = sync.Pool{New: newScratch}, sync.Pool{New: newScratch}

func newScratch() any { return new(scratch) }

// grow returns (*buf)[:n], reallocating when the buffer is too small.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// colBlock is how many patch columns are packed and multiplied at a time
// for K = k: the packed block (4 bytes per element in either dtype) stays
// near 1 MiB, so operand scratch is bounded whatever the input size and a
// block stays cache-resident while every row panel sweeps it. It is even,
// so only the last block can end in an unpaired byte column.
func colBlock(k int) int { return max(2, (1<<18)/k) &^ 1 }

// packQ packs patch-matrix columns [j0,j1) of (in, g) for the SWAR
// kernel: columns j0+2q and j0+2q+1 share word column words[q*K:(q+1)*K],
// an odd last column stays bytes in tail, and cAdj[j-j0] = za·Σ_l b[l,j]
// is the column half of the zero-point decomposition, summed in the same
// pass. Padding taps read pad (the input zero point).
func (s *scratch) packQ(in []uint8, g ConvGeom, pad uint8, za int32, j0, j1 int) (words []uint64, tail []uint8, cAdj []int32) {
	k, w := g.PatchRows(), j1-j0
	words = grow(&s.words, w/2*k)
	cAdj = grow(&s.i32, w)
	c0, c1 := grow(&s.u8[0], k), grow(&s.u8[1], k)
	for q := 0; q < w/2; q++ {
		patchCol(in, g, j0+2*q, pad, c0)
		patchCol(in, g, j0+2*q+1, pad, c1)
		var s0, s1 int32
		ws := words[q*k : (q+1)*k]
		for l, v := range c0 {
			u := c1[l]
			ws[l] = uint64(v) | uint64(u)<<32
			s0 += int32(v)
			s1 += int32(u)
		}
		cAdj[2*q], cAdj[2*q+1] = za*s0, za*s1
	}
	if w%2 == 1 {
		tail = c0
		patchCol(in, g, j1-1, pad, tail)
		var s0 int32
		for _, v := range tail {
			s0 += int32(v)
		}
		cAdj[w-1] = za * s0
	}
	return words, tail, cAdj
}

// fMul is the float driver for pa (m×k panels) times a K×N operand whose
// column j fill writes (length K, in ascending k). Column blocks are
// packed column-major into s; for each row panel the mr×w strip of dot
// products is handed to epi row by row, as row r's columns [j0,j0+w).
// epi runs concurrently for distinct rows.
func fMul(s *scratch, pa [][mr]float32, m, k, n int, fill func(j int, col []float32), epi func(r, j0 int, row []float32)) {
	nb := colBlock(k)
	for j0 := 0; j0 < n; j0 += nb {
		w := min(nb, n-j0)
		cols := grow(&s.f32, w*k)
		for j := 0; j < w; j++ {
			fill(j0+j, cols[j*k:(j+1)*k])
		}
		parallelRows(m, func(i0, i1 int) {
			st := strips.Get().(*scratch)
			defer strips.Put(st)
			strip := grow(&st.f32, mr*w)
			for r0 := i0; r0 < i1; r0 += mr {
				panel := pa[r0/mr*k : (r0/mr+1)*k]
				for j := 0; j < w; j++ {
					strip[j], strip[w+j], strip[2*w+j], strip[3*w+j] = f32Dot(panel, cols[j*k:(j+1)*k])
				}
				for r := 0; r < min(mr, i1-r0); r++ {
					epi(r0+r, j0, strip[r*w:(r+1)*w])
				}
			}
		})
	}
}

// qMul is the QUInt8 driver: it packs the patch matrix of (in, g) with
// zero point zb (also the padding value) block by block, runs the SWAR
// tiles, applies the zero-point decomposition
//
//	acc[r,j] = Σ_l a·b + k·za·zb − zb·rowSum[r] − za·colSum[j]
//
// at strip writeback, and hands each finished strip row to epi as row r's
// columns [j0,j0+len(acc)). epi runs concurrently for distinct rows.
func qMul(pa *PackedAU8, in []uint8, g ConvGeom, za, zb int32, epi func(r, j0 int, acc []int32)) {
	k, n := pa.K, g.PatchCols()
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	base := int32(k) * za * zb
	nb := colBlock(k)
	for j0 := 0; j0 < n; j0 += nb {
		w := min(nb, n-j0)
		words, tail, cAdj := s.packQ(in, g, uint8(zb), za, j0, j0+w)
		parallelRows(pa.M, func(i0, i1 int) {
			st := strips.Get().(*scratch)
			defer strips.Put(st)
			strip := grow(&st.i32, mr*w)
			for r0 := i0; r0 < i1; r0 += mr {
				panel := pa.data[r0/mr*k : (r0/mr+1)*k]
				var adj [mr]int32
				for r := range adj {
					adj[r] = base - zb*pa.rowSums[r0+r]
				}
				for q := 0; q < w/2; q++ {
					lo, hi := swarTile(panel, words[q*k:(q+1)*k])
					j := 2 * q
					for r := range adj {
						strip[r*w+j] = lo[r] + adj[r] - cAdj[j]
						strip[r*w+j+1] = hi[r] + adj[r] - cAdj[j+1]
					}
				}
				if tail != nil {
					s0, s1, s2, s3 := qDot(panel, tail)
					for r, v := range [mr]int32{s0, s1, s2, s3} {
						strip[r*w+w-1] = v + adj[r] - cAdj[w-1]
					}
				}
				for r := 0; r < min(mr, i1-r0); r++ {
					epi(r0+r, j0, strip[r*w:(r+1)*w])
				}
			}
		})
	}
}
