//go:build !amd64

package gemm

// Without the amd64 assembly the full-width tiles are the portable Go
// tiles, the same code the amd64 tests compare the assembly against.

func fTile(panel [][mr]float32, cols []float32, out []float32, w int) {
	fTileGo(panel, cols, out, w)
}

func qTile(panel [][mr][2]uint8, words []uint32, out []int32, w int) {
	qTileGo(panel, words, out, w)
}
