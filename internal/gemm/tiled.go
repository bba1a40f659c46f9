package gemm

import (
	"sync"

	"mulayer/internal/f16"
)

// Register-tiled micro-kernels over packed operands.
//
// The drivers here implement the GotoBLAS/gemmlowp loop structure: the
// weight operand arrives packed into mr-row panels (pack.go), the
// streaming operand is packed per call into nr-column panels straight
// from its source (the im2col gather is fused into the pack, so no K×N
// patch matrix is written: each column is read from a padded copy of the
// input through tables of tap and window offsets built once per call, see
// patches), and the inner loops compute one mr×nr tile per column panel.
// A call runs on the calling goroutine: parallelism across processors is
// the split of a layer's output channels (partition, exec), not a second
// sharding inside one GEMM. Each finished mr-row strip of a column block
// is handed to the caller's epilogue row by row, so bias, activation and
// requantization run on a strip that is still in cache instead of on a
// second pass over a full result.
//
// A column panel stores its nr columns k-major, one [nr] array per k
// step (per k pair for QUInt8): element l of the panel's column c is
// panel[l][c]. The tile reads it as one stream, and a pack writes it as
// one: where the panel's nr columns step by the convolution's column
// stride sw — all columns of a matrix operand, and the columns within
// one output row of any convolution — every tap reads a run of nr bytes
// sw apart, which the pack reads as one load and writes as one [nr]
// array.
//
// The tiles compute mr = 8 rows × nr = 4 columns. On amd64 hosts with
// AVX2 they are assembly (tile_amd64.s), chosen once at package init;
// everywhere else they are the portable Go tiles. Both read the same
// packs:
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
// A column block whose width is not a multiple of nr — a 7×7 plane's
// last column, a GEMV's single column — has its last panel filled with
// zero columns, so every tile is full width; the epilogue only ever sees
// the real columns. The portable Go tiles fTileGo and qTileGo are the
// whole kernel on hosts without AVX2 and on other architectures
// (tile_other.go), and the oracle the assembly is tested against.

const (
	// mr is the register-tile height (packed A panel height).
	mr = 8
	// nr is the register-tile width in columns (packed column panel
	// width).
	nr = 4
)

// tileLevel is one implementation of the tiles and of the run packs
// (packRunQGo, widenRunGo) that fill their column panels.
type tileLevel struct {
	name   string
	f      func(panel [][mr]float32, cols [][nr]float32, out []float32, w int)
	q      func(panel [][mr][2]uint8, words [][nr]uint32, out []int32, w int)
	runQ   func(panel [][nr]uint32, src []uint8, off []int32, sw int) [nr]int32
	runLUT func(panel [][nr]float32, src []uint8, off []int32, lut *[256]float32, sw int)
}

// goTiles is the portable level every host runs.
var goTiles = tileLevel{"go", fTileGo, qTileGo, packRunQGo, widenRunGo}

// tiles is the level the kernels run: the fastest the host supports,
// chosen once.
var tiles = hostTiles()[0]

// fTileGo computes the mr×nr float tile of panel against the column
// panel cols (len(panel) steps) and stores row r's sums at out[r*w:].
func fTileGo(panel [][mr]float32, cols [][nr]float32, out []float32, w int) {
	for c := 0; c < nr; c++ {
		out[c], out[w+c], out[2*w+c], out[3*w+c],
			out[4*w+c], out[5*w+c], out[6*w+c], out[7*w+c] = f32Dot(panel, cols, c)
	}
}

// f32Dot computes one mr×1 tile: the dot products of the panel's eight
// rows with column c of the column panel, each in a single ascending-k
// accumulator. The float32 conversion of each product forbids fusing it
// into the add (arm64 would otherwise emit FMADDS, skipping the
// product's rounding). It stays a call: inlined into fTileGo's column
// loop, the k loop spills its index on every step.
//
//go:noinline
func f32Dot(panel [][mr]float32, cols [][nr]float32, c int) (c0, c1, c2, c3, c4, c5, c6, c7 float32) {
	panel = panel[:len(cols)]
	for l := range cols {
		a, b := &panel[l], cols[l][c]
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
// the word panel words (len(panel) pair steps) and stores row r's sums
// at out[r*w:]. Each pair's two products are summed exactly before the
// int32 accumulation, as PMADDWD does, and int32 addition wraps, so the
// sums are bit-identical to the assembly tiles' and to the reference's.
func qTileGo(panel [][mr][2]uint8, words [][nr]uint32, out []int32, w int) {
	for c := 0; c < nr; c++ {
		out[c], out[w+c], out[2*w+c], out[3*w+c],
			out[4*w+c], out[5*w+c], out[6*w+c], out[7*w+c] = pairDot(panel, words, c)
	}
}

// pairDot computes one mr×1 QUInt8 tile over k pairs, for column c.
func pairDot(panel [][mr][2]uint8, words [][nr]uint32, c int) (s0, s1, s2, s3, s4, s5, s6, s7 int32) {
	panel = panel[:len(words)]
	for l := range words {
		b := words[l][c]
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

// tileStrip computes the mr×w strip of panel against the w/nr column
// panels in cols (len(panel) steps each) and stores row r at
// strip[r*w:], one tile per column panel.
func tileStrip[P, B, C any](panel []P, cols [][nr]B, strip []C, tile func([]P, [][nr]B, []C, int)) {
	kp := len(panel)
	w := len(cols) / kp * nr
	for j := 0; j < w; j += nr {
		tile(panel, cols[j/nr*kp:(j/nr+1)*kp], strip[j:], w)
	}
}

// padCols is w rounded up to whole column panels.
func padCols(w int) int { return (w + nr - 1) &^ (nr - 1) }

// scratch is the working memory of one kernel call: the padded input, the
// tap and window offset tables, the packed right operand, ConvQViaF16's
// widening table and the accumulator strip. It is dead the moment the call returns, so it comes
// from a pool instead of fresh allocations or per-layer fields; sync.Pool
// drops objects that stay idle through a GC cycle, so scratch never pins
// memory on a layer or runtime.
type scratch struct {
	pu8    []uint8
	pf32   []float32
	ph     []f16.F16
	off    []int32
	at     []int32
	words  [][nr]uint32
	f32    [][nr]float32
	lut    [256]float32
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
// sweeps it. It is a multiple of nr, so only the last block is padded
// (padCols).
func colBlock(k int) int { return max(nr, (1<<18)/k) &^ (nr - 1) }

// packQ packs patch-matrix columns [j0,j1) of p for the QUInt8 tiles:
// panel t of words, words[t*kp:(t+1)*kp], holds columns j0+nr·t … as k
// pairs of bytes b[2l] | b[2l+1]<<16, an odd k's last pair padded with
// 0, and cAdj[j] = za·Σ_l b[l,j] is the column half of the zero-point
// decomposition, summed in the same pass. words holds
// padCols(j1−j0)/nr panels, the padding columns zero; cAdj holds the
// real columns.
func (s *scratch) packQ(p patches[uint8], za int32, j0, j1 int) (words [][nr]uint32, cAdj []int32) {
	k, w := p.g.PatchRows(), j1-j0
	kp := (k + 1) / 2
	words = grow(&s.words, padCols(w)/nr*kp)
	cAdj = grow(&s.i32, w)
	if w%nr != 0 {
		clear(words[w/nr*kp:])
	}
	at, off, sw := p.at[j0:j1], p.off, p.g.StrideW
	for j := 0; j < w; j += nr {
		panel := words[j/nr*kp:][:kp]
		var sums [nr]int32
		switch {
		case j+nr > w: // the padded last panel, column by column
			for c := range w - j {
				src := p.in[at[j+c]:]
				for l := range panel[:k/2] {
					lo, hi := src[off[2*l]], src[off[2*l+1]]
					panel[l][c] = uint32(lo) | uint32(hi)<<16
					sums[c] += int32(lo) + int32(hi)
				}
				if k%2 == 1 {
					lo := src[off[k-1]]
					panel[kp-1][c] = uint32(lo)
					sums[c] += int32(lo)
				}
			}
		case isRun(at[j:j+nr], sw): // one run per tap
			sums = tiles.runQ(panel, p.in[at[j]:], off, sw)
		default:
			sums = packPanelQ(panel, p.in, at[j:j+nr], off)
		}
		for c := range min(nr, w-j) {
			cAdj[j+c] = za * sums[c]
		}
	}
	return words, cAdj
}

// packPanelQ packs a full column panel of any geometry: column c's
// element l is in[at[c]+off[l]]. Each pair step reads its two tap
// offsets once for all nr columns and writes the step's nr words
// together; it returns each column's Σ_l b.
func packPanelQ(panel [][nr]uint32, in []uint8, at, off []int32) [nr]int32 {
	k := len(off)
	c0, c1, c2, c3 := in[at[0]:], in[at[1]:], in[at[2]:], in[at[3]:]
	var s0, s1, s2, s3 int32
	for l := range panel[:k/2] {
		o := off[2*l : 2*l+2 : 2*l+2]
		a0, a1, a2, a3 := c0[o[0]], c1[o[0]], c2[o[0]], c3[o[0]]
		b0, b1, b2, b3 := c0[o[1]], c1[o[1]], c2[o[1]], c3[o[1]]
		panel[l] = [nr]uint32{uint32(a0) | uint32(b0)<<16, uint32(a1) | uint32(b1)<<16,
			uint32(a2) | uint32(b2)<<16, uint32(a3) | uint32(b3)<<16}
		s0 += int32(a0) + int32(b0)
		s1 += int32(a1) + int32(b1)
		s2 += int32(a2) + int32(b2)
		s3 += int32(a3) + int32(b3)
	}
	if k%2 == 1 {
		o := off[k-1]
		a0, a1, a2, a3 := c0[o], c1[o], c2[o], c3[o]
		panel[k/2] = [nr]uint32{uint32(a0), uint32(a1), uint32(a2), uint32(a3)}
		s0, s1, s2, s3 = s0+int32(a0), s1+int32(a1), s2+int32(a2), s3+int32(a3)
	}
	return [nr]int32{s0, s1, s2, s3}
}

// isRun reports that the nr columns at step by sw, so that every tap
// of the panel reads a run of nr bytes sw apart.
func isRun(at []int32, sw int) bool {
	s := int32(sw)
	return at[1]-at[0] == s && at[2]-at[1] == s && at[3]-at[2] == s
}

// packRunQGo packs one column panel whose nr columns read a run of nr
// bytes sw apart for every tap: column c's element l is
// src[off[l]+c·sw]. Each tap pair is two runs, interleaved into the
// step's nr words, an odd k's last step padded with 0; it returns each
// column's Σ_l b. panel holds (len(off)+1)/2 steps.
func packRunQGo(panel [][nr]uint32, src []uint8, off []int32, sw int) [nr]int32 {
	k := len(off)
	var s0, s1, s2, s3 int32
	for l := range panel[:k/2] {
		o := off[2*l : 2*l+2 : 2*l+2]
		a, b := src[o[0]:][:3*sw+1], src[o[1]:][:3*sw+1]
		a0, a1, a2, a3 := a[0], a[sw], a[2*sw], a[3*sw]
		b0, b1, b2, b3 := b[0], b[sw], b[2*sw], b[3*sw]
		panel[l] = [nr]uint32{uint32(a0) | uint32(b0)<<16, uint32(a1) | uint32(b1)<<16,
			uint32(a2) | uint32(b2)<<16, uint32(a3) | uint32(b3)<<16}
		s0 += int32(a0) + int32(b0)
		s1 += int32(a1) + int32(b1)
		s2 += int32(a2) + int32(b2)
		s3 += int32(a3) + int32(b3)
	}
	if k%2 == 1 {
		a := src[off[k-1]:][:3*sw+1]
		a0, a1, a2, a3 := a[0], a[sw], a[2*sw], a[3*sw]
		panel[k/2] = [nr]uint32{uint32(a0), uint32(a1), uint32(a2), uint32(a3)}
		s0, s1, s2, s3 = s0+int32(a0), s1+int32(a1), s2+int32(a2), s3+int32(a3)
	}
	return [nr]int32{s0, s1, s2, s3}
}

// widenRunGo is ConvQViaF16's pack of one such column panel: step l is
// the run at src[off[l]:], nr bytes sw apart, each byte widened through
// lut. panel holds len(off) steps.
func widenRunGo(panel [][nr]float32, src []uint8, off []int32, lut *[256]float32, sw int) {
	for l, o := range off[:len(panel)] {
		run := src[o:][:3*sw+1]
		panel[l] = [nr]float32{lut[run[0]], lut[run[sw]], lut[run[2*sw]], lut[run[3*sw]]}
	}
}

// fMul is the float driver for pa (m×k panels) times a K×N operand whose
// columns fill packs: fill(j0, w, cols) writes columns [j0, j0+w) into
// the column panels cols, k steps each, element l of column j0+j at
// cols[j/nr*k+l][j%nr]. Column blocks are packed into s, the last panel
// of a block padded with zero columns; for each row panel the mr×w strip
// of dot products is handed to epi row by row, as row r's columns
// [j0,j0+w).
func fMul(s *scratch, pa [][mr]float32, m, k, n int, fill func(j0, w int, cols [][nr]float32), epi func(r, j0 int, row []float32)) {
	nb := colBlock(k)
	for j0 := 0; j0 < n; j0 += nb {
		w := min(nb, n-j0)
		wp := padCols(w)
		cols := grow(&s.f32, wp/nr*k)
		if w%nr != 0 {
			clear(cols[w/nr*k:])
		}
		fill(j0, w, cols)
		strip := grow(&s.stripF, mr*wp)
		for r0 := 0; r0 < m; r0 += mr {
			tileStrip(pa[r0/mr*k:(r0/mr+1)*k], cols, strip, tiles.f)
			for r := 0; r < min(mr, m-r0); r++ {
				epi(r0+r, j0, strip[r*wp:r*wp+w])
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
		w, wp := len(cAdj), len(words)/kp*nr
		strip := grow(&s.stripQ, mr*wp)
		for r0 := 0; r0 < pa.M; r0 += mr {
			tileStrip(pa.data[r0/mr*kp:(r0/mr+1)*kp], words, strip, tiles.q)
			for r := 0; r < min(mr, pa.M-r0); r++ {
				adj, row := base-zb*pa.rowSums[r0+r], strip[r*wp:r*wp+w]
				for j, v := range row {
					row[j] = v + adj - cAdj[j]
				}
				epi(r0+r, j0, row)
			}
		}
	}
}
