package gemm

// The assembly bodies of the full-width tiles (tile_amd64.s). Each
// computes exactly what its Go body (fTileGo, qTileGo) computes for nr
// columns, and the tests hold every level to it bit for bit. The callers
// guarantee len(cols) == nr·len(panel), len(words) == nr·len(panel) and
// len(out) ≥ (mr−1)·w + nr; the assembly does no bounds checks of its
// own.
//
// SSE2 is part of the amd64 baseline, so its tiles run on every amd64
// CPU; the AVX2 tiles run where cpuHasAVX2 reports both the instructions
// and the operating system's support for the YMM registers.

//go:noescape
func fTileAVX2(panel [][mr]float32, cols []float32, out []float32, w int)

//go:noescape
func qTileAVX2(panel [][mr][2]uint8, words []uint32, out []int32, w int)

//go:noescape
func fTileSSE2(panel [][mr]float32, cols []float32, out []float32, w int)

//go:noescape
func qTileSSE2(panel [][mr][2]uint8, words []uint32, out []int32, w int)

// cpuHasAVX2 reports whether this CPU and OS can run the AVX2 tiles.
func cpuHasAVX2() bool

// hostTiles lists the tile levels this host runs, fastest first.
func hostTiles() []tileLevel {
	sse2 := tileLevel{"sse2", fTileSSE2, qTileSSE2}
	if cpuHasAVX2() {
		return []tileLevel{{"avx2", fTileAVX2, qTileAVX2}, sse2, goTiles}
	}
	return []tileLevel{sse2, goTiles}
}
