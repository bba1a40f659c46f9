package gemm

// The SSE2 bodies of the full-width tiles (tile_amd64.s). SSE2 is part
// of the amd64 baseline, so they run on every amd64 CPU without feature
// detection. Each computes exactly what its Go body (fTileGo, qTileGo)
// computes for nr columns, and the tests hold them to it bit for bit.
// The callers guarantee len(cols) == nr·len(panel), len(words) ==
// nr·len(panel) and len(out) ≥ (mr−1)·w + nr; the assembly does no
// bounds checks of its own.

// fTile is fTileGo for exactly nr columns.
//
//go:noescape
func fTile(panel [][mr]float32, cols []float32, out []float32, w int)

// qTile is qTileGo for exactly nr columns.
//
//go:noescape
func qTile(panel [][mr][2]uint8, words []uint32, out []int32, w int)
