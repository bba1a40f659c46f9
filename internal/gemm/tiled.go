package gemm

import (
	"sync"

	"mulayer/internal/f16"
)

// Register-tiled micro-kernels over packed operands.
//
// The drivers here implement the GotoBLAS/gemmlowp loop structure: the
// weight operand arrives packed into mr-row panels (pack.go), the
// streaming operand is packed per call into contiguous columns straight
// from its source (the im2col gather is fused into the pack, so no K×N
// patch matrix is written: each column is read from a padded copy of the
// input through tables of tap and window offsets built once per call, see
// patches), and the inner loops compute one mr×nr tile per group of nr
// columns. A call runs on the calling goroutine: parallelism across
// processors is the split of a layer's output channels (partition,
// exec), not a second sharding inside one GEMM. Each finished mr-row
// strip of a column block is handed to the caller's epilogue row by row,
// so bias, activation and requantization run on a strip that is still in
// cache instead of on a second pass over a full result.
//
// The full-width tiles compute mr = 8 rows × nr = 4 columns. On amd64
// hosts with AVX2 they are assembly (tile_amd64.s), chosen once at
// package init; everywhere else they are the portable Go tiles. Both
// read the same packs:
//
//   - float32 (ConvF32, ConvF16, ConvQViaF16): per k step one load of the
//     panel's [mr]float32, and per column a broadcast b[l], a multiply
//     and an add into that column's accumulator. Each lane is one IEEE
//     binary32 multiply and one add, in ascending k — the operations of
//     F32Ref's and F16Ref's scalar loops — so results are bit-identical
//     to them. Nothing fuses the two: a fused multiply-add would skip the
//     product's rounding.
//   - QUInt8 (ConvQ): the weight panel holds k in pairs, one byte per
//     weight (pack.go), and the column operand holds each pair as one
//     uint32 word b[2l] | b[2l+1]<<16. Per pair step the panel's bytes
//     are widened to int16 in-register, each column's word is broadcast,
//     and VPMADDWD leaves a[2l]·b[2l] + a[2l+1]·b[2l+1] ≤ 2·255² < 2³¹ in
//     each row's lane, exactly; VPADDD then wraps mod 2³² as Go's int32
//     does, so no k is too long and the sums equal the reference's.
//
// Column tails narrower than nr — including a GEMV's single column — run
// the portable Go tiles fTileGo and qTileGo on the same packs. They are
// also the whole kernel on hosts without AVX2 and on other architectures
// (tile_other.go), and the oracle the assembly is tested against.

const (
	// mr is the register-tile height (packed A panel height).
	mr = 8
	// nr is the register-tile width in columns.
	nr = 4
)

// tileLevel is one implementation of the full-width tiles.
type tileLevel struct {
	name string
	f    func(panel [][mr]float32, cols []float32, out []float32, w int)
	q    func(panel [][mr][2]uint8, words []uint32, out []int32, w int)
}

// goTiles is the portable level every host runs.
var goTiles = tileLevel{"go", fTileGo, qTileGo}

// tiles is the level the kernels run: the fastest the host supports,
// chosen once.
var tiles = hostTiles()[0]

// fTileGo computes the mr×(len(cols)/len(panel)) float tile of panel
// against the column-major columns cols (each len(panel) long) and stores
// row r's sums at out[r*w:].
func fTileGo(panel [][mr]float32, cols []float32, out []float32, w int) {
	k := len(panel)
	for c := 0; c*k < len(cols); c++ {
		out[c], out[w+c], out[2*w+c], out[3*w+c],
			out[4*w+c], out[5*w+c], out[6*w+c], out[7*w+c] = f32Dot(panel, cols[c*k:(c+1)*k])
	}
}

// f32Dot computes one mr×1 tile: the dot products of the panel's eight
// rows with one packed column, each in a single ascending-k accumulator.
// The float32 conversion of each product forbids fusing it into the add
// (arm64 would otherwise emit FMADDS, skipping the product's rounding).
// It stays a call: inlined into fTileGo's column loop, the k loop spills
// its index on every step.
//
//go:noinline
func f32Dot(panel [][mr]float32, col []float32) (c0, c1, c2, c3, c4, c5, c6, c7 float32) {
	panel = panel[:len(col)]
	for l, b := range col {
		a := &panel[l]
		c0 += float32(a[0] * b)
		c1 += float32(a[1] * b)
		c2 += float32(a[2] * b)
		c3 += float32(a[3] * b)
		c4 += float32(a[4] * b)
		c5 += float32(a[5] * b)
		c6 += float32(a[6] * b)
		c7 += float32(a[7] * b)
	}
	return
}

// qTileGo computes the raw QUInt8 sums Σ_l a·b of the k-pair panel with
// the word columns words (each len(panel) long) and stores row r's sums
// at out[r*w:]. Each pair's two products are summed exactly before the
// int32 accumulation, as PMADDWD does, and int32 addition wraps, so the
// sums are bit-identical to the assembly tiles' and to the reference's.
func qTileGo(panel [][mr][2]uint8, words []uint32, out []int32, w int) {
	kp := len(panel)
	for c := 0; c*kp < len(words); c++ {
		out[c], out[w+c], out[2*w+c], out[3*w+c],
			out[4*w+c], out[5*w+c], out[6*w+c], out[7*w+c] = pairDot(panel, words[c*kp:(c+1)*kp])
	}
}

// pairDot computes one mr×1 QUInt8 tile over k pairs.
func pairDot(panel [][mr][2]uint8, words []uint32) (s0, s1, s2, s3, s4, s5, s6, s7 int32) {
	panel = panel[:len(words)]
	for l, b := range words {
		a, lo, hi := &panel[l], int32(b&0xffff), int32(b>>16)
		s0 += int32(a[0][0])*lo + int32(a[0][1])*hi
		s1 += int32(a[1][0])*lo + int32(a[1][1])*hi
		s2 += int32(a[2][0])*lo + int32(a[2][1])*hi
		s3 += int32(a[3][0])*lo + int32(a[3][1])*hi
		s4 += int32(a[4][0])*lo + int32(a[4][1])*hi
		s5 += int32(a[5][0])*lo + int32(a[5][1])*hi
		s6 += int32(a[6][0])*lo + int32(a[6][1])*hi
		s7 += int32(a[7][0])*lo + int32(a[7][1])*hi
	}
	return
}

// tileStrip computes the mr×w strip of panel against the w packed
// columns in cols (len(panel) elements each) and stores row r at
// strip[r*w:]: full nr-column tiles through full, a narrower tail
// through tail.
func tileStrip[P, B, C any](panel []P, cols []B, strip []C, full, tail func([]P, []B, []C, int)) {
	kp := len(panel)
	w := len(cols) / kp
	j := 0
	for ; j+nr <= w; j += nr {
		full(panel, cols[j*kp:(j+nr)*kp], strip[j:], w)
	}
	if j < w {
		tail(panel, cols[j*kp:], strip[j:], w)
	}
}

// scratch is the working memory of one kernel call: the padded input, the
// tap and window offset tables, the packed right operand and the
// accumulator strip. It is dead the moment the call returns, so it comes
// from a pool instead of fresh allocations or per-layer fields; sync.Pool
// drops objects that stay idle through a GC cycle, so scratch never pins
// memory on a layer or runtime.
type scratch struct {
	pu8    []uint8
	pf32   []float32
	ph     []f16.F16
	off    []int32
	at     []int32
	words  []uint32
	f32    []float32
	i32    []int32
	stripF []float32
	stripQ []int32
}

var operands = sync.Pool{New: func() any { return new(scratch) }}

// grow returns (*buf)[:n], reallocating when the buffer is too small.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// colBlock is how many patch columns are packed and multiplied at a time
// for K = k: the packed block (at most 4 bytes per element in either
// dtype) stays near 1 MiB, so operand scratch is bounded whatever the
// input size and a block stays cache-resident while every row panel
// sweeps it. It is a multiple of nr, so only the last block can end in a
// column tail narrower than a tile.
func colBlock(k int) int { return max(nr, (1<<18)/k) &^ (nr - 1) }

// packQ packs patch-matrix columns [j0,j1) of p for the QUInt8 tiles:
// column j0+j is words[j*kp:(j+1)*kp], k pairs of bytes as
// b[2l] | b[2l+1]<<16 with an odd k's last pair padded with 0, and
// cAdj[j] = za·Σ_l b[l,j] is the column half of the zero-point
// decomposition, summed in the same pass.
func (s *scratch) packQ(p patches[uint8], za int32, j0, j1 int) (words []uint32, cAdj []int32) {
	k, w := p.g.PatchRows(), j1-j0
	kp := (k + 1) / 2
	words = grow(&s.words, w*kp)
	cAdj = grow(&s.i32, w)
	for j := 0; j < w; j++ {
		// The gather and the pairing in one pass.
		ws, src, off := words[j*kp:(j+1)*kp], p.in[p.at[j0+j]:], p.off
		var sum int32
		l := 0
		for ; l+2 <= k/2; l += 2 { // two words per step
			o := off[2*l : 2*l+4 : 2*l+4]
			b0, b1, b2, b3 := src[o[0]], src[o[1]], src[o[2]], src[o[3]]
			ws[l], ws[l+1] = uint32(b0)|uint32(b1)<<16, uint32(b2)|uint32(b3)<<16
			sum += int32(b0) + int32(b1) + int32(b2) + int32(b3)
		}
		for ; l < k/2; l++ {
			lo, hi := src[off[2*l]], src[off[2*l+1]]
			ws[l] = uint32(lo) | uint32(hi)<<16
			sum += int32(lo) + int32(hi)
		}
		if k%2 == 1 {
			lo := src[off[k-1]]
			ws[kp-1] = uint32(lo)
			sum += int32(lo)
		}
		cAdj[j] = za * sum
	}
	return words, cAdj
}

// fMul is the float driver for pa (m×k panels) times a K×N operand whose
// column j fill writes (length K, in ascending k). Column blocks are
// packed column-major into s; for each row panel the mr×w strip of dot
// products is handed to epi row by row, as row r's columns [j0,j0+w).
func fMul(s *scratch, pa [][mr]float32, m, k, n int, fill func(j int, col []float32), epi func(r, j0 int, row []float32)) {
	nb := colBlock(k)
	for j0 := 0; j0 < n; j0 += nb {
		w := min(nb, n-j0)
		cols := grow(&s.f32, w*k)
		for j := 0; j < w; j++ {
			fill(j0+j, cols[j*k:(j+1)*k])
		}
		strip := grow(&s.stripF, mr*w)
		for r0 := 0; r0 < m; r0 += mr {
			tileStrip(pa[r0/mr*k:(r0/mr+1)*k], cols, strip, tiles.f, fTileGo)
			for r := 0; r < min(mr, m-r0); r++ {
				epi(r0+r, j0, strip[r*w:(r+1)*w])
			}
		}
	}
}

// qMul is the QUInt8 driver: it packs the patch matrix of (in, g) with
// zero point zb (also the padding value) block by block, runs the tiles,
// applies the zero-point decomposition
//
//	acc[r,j] = Σ_l a·b + k·za·zb − zb·rowSum[r] − za·colSum[j]
//
// to each finished strip row, and hands it to epi as row r's columns
// [j0,j0+len(acc)).
func qMul(pa *PackedAU8, in []uint8, g ConvGeom, za, zb int32, epi func(r, j0 int, acc []int32)) {
	k, n, kp := pa.K, g.PatchCols(), (pa.K+1)/2
	s := operands.Get().(*scratch)
	defer operands.Put(s)
	p := newPatches(s, in, g, uint8(zb), &s.pu8)
	base, nb := int32(k)*za*zb, colBlock(k)
	for j0 := 0; j0 < n; j0 += nb {
		words, cAdj := s.packQ(p, za, j0, min(j0+nb, n))
		w := len(cAdj)
		strip := grow(&s.stripQ, mr*w)
		for r0 := 0; r0 < pa.M; r0 += mr {
			tileStrip(pa.data[r0/mr*kp:(r0/mr+1)*kp], words, strip, tiles.q, qTileGo)
			for r := 0; r < min(mr, pa.M-r0); r++ {
				adj, row := base-zb*pa.rowSums[r0+r], strip[r*w:(r+1)*w]
				for j, v := range row {
					row[j] = v + adj - cAdj[j]
				}
				epi(r0+r, j0, row)
			}
		}
	}
}
