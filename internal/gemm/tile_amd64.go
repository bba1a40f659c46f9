package gemm

import "mulayer/internal/cpu"

// The assembly bodies of the tiles and run packs (tile_amd64.s). Each
// computes exactly what its Go body (fTileGo, qTileGo, packRunQGo,
// widenRunGo) computes, and the tests hold them to it bit for bit. The
// callers guarantee len(cols) == len(panel), len(words) == len(panel),
// len(out) ≥ (mr−1)·w + nr, and that every run a pack reads lies inside
// src; the assembly does no bounds checks of its own.
//
// The AVX2 level runs where cpu.AVX2 reports both the instructions and
// the operating system's support for the YMM registers; every other
// amd64 CPU runs the Go level.

//go:noescape
func fTileAVX2(panel [][mr]float32, cols [][nr]float32, out []float32, w int)

//go:noescape
func qTileAVX2(panel [][mr][2]uint8, words [][nr]uint32, out []int32, w int)

// packRunQAVX2 is packRunQGo; len(panel) must be (len(off)+1)/2.
//
//go:noescape
func packRunQAVX2(panel [][nr]uint32, src []uint8, off []int32) [nr]int32

// widenRunAVX2 is widenRunGo; len(panel) must be len(off).
//
//go:noescape
func widenRunAVX2(panel [][nr]float32, src []uint8, off []int32, lut *[256]float32)

// hostTiles lists the tile levels this host runs, fastest first.
func hostTiles() []tileLevel {
	if cpu.AVX2 {
		return []tileLevel{{"avx2", fTileAVX2, qTileAVX2, packRunQAVX2, widenRunAVX2}, goTiles}
	}
	return []tileLevel{goTiles}
}
