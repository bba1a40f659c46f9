package gemm

import "mulayer/internal/cpu"

// The assembly bodies of the tiles and run packs (tile_amd64.s). Each
// computes exactly what its Go body (fTileGo, qTileGo, packRunQGo,
// widenRunGo) computes, and the tests hold them to it bit for bit. The
// callers guarantee len(cols) == len(panel), len(words) == len(panel),
// len(out) ≥ (mr−1)·w + nr, and that every byte a run pack loads lies
// inside src (vectorRun); the assembly does no bounds checks of its own.
//
// The AVX2 level runs where cpu.AVX2 reports both the instructions and
// the operating system's support for the YMM registers; every other
// amd64 CPU runs the Go level.

//go:noescape
func fTileAVX2(panel [][mr]float32, cols [][nr]float32, out []float32, w int)

//go:noescape
func qTileAVX2(panel [][mr][2]uint8, words [][nr]uint32, out []int32, w int)

// packRunQAVX2 is packRunQGo at sw = 1 or 2; len(panel) must be
// (len(off)+1)/2, and at sw = 2 every run's 8-byte load lies inside src.
//
//go:noescape
func packRunQAVX2(panel [][nr]uint32, src []uint8, off []int32, sw int) [nr]int32

// widenRunAVX2 is widenRunGo at sw = 1 or 2; len(panel) must be
// len(off), and at sw = 2 every run's 8-byte load lies inside src.
//
//go:noescape
func widenRunAVX2(panel [][nr]float32, src []uint8, off []int32, lut *[256]float32, sw int)

// vectorRun reports that the AVX2 run packs take a panel of stride sw
// whose runs start at off in src: at sw = 2 they load 8 bytes, one past
// the run's last, so the last run must not end src. Any other panel runs
// the Go pack.
func vectorRun(src []uint8, off []int32, sw int) bool {
	return sw == 1 || sw == 2 && int(off[len(off)-1])+8 <= len(src)
}

func packRunQVector(panel [][nr]uint32, src []uint8, off []int32, sw int) [nr]int32 {
	if !vectorRun(src, off, sw) {
		return packRunQGo(panel, src, off, sw)
	}
	return packRunQAVX2(panel, src, off, sw)
}

func widenRunVector(panel [][nr]float32, src []uint8, off []int32, lut *[256]float32, sw int) {
	if !vectorRun(src, off, sw) {
		widenRunGo(panel, src, off, lut, sw)
		return
	}
	widenRunAVX2(panel, src, off, lut, sw)
}

// hostTiles lists the tile levels this host runs, fastest first.
func hostTiles() []tileLevel {
	if cpu.AVX2 {
		return []tileLevel{{"avx2", fTileAVX2, qTileAVX2, packRunQVector, widenRunVector}, goTiles}
	}
	return []tileLevel{goTiles}
}
