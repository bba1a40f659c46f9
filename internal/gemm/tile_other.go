//go:build !amd64

package gemm

// Without the amd64 assembly the full-width tiles are the portable Go
// tiles, the same code the amd64 tests compare the assembly against.
func hostTiles() []tileLevel { return []tileLevel{goTiles} }
