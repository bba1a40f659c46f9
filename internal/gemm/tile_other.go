//go:build !amd64

package gemm

// Without the amd64 assembly the tiles and run packs are the portable Go
// ones, the same code the amd64 tests compare the assembly against.
func hostTiles() []tileLevel { return []tileLevel{goTiles} }
