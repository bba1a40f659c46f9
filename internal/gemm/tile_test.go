package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// floatSpecials are the binary32 values whose products and sums most
// easily expose a lane that is not one IEEE multiply and one add.
var floatSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	math.MaxFloat32, -math.MaxFloat32, 1e20, -3e19,
	1, -1, 0.1,
}

// The full-width tiles (SSE2 assembly on amd64) must equal the portable
// Go tiles bit for bit on the same packs, for every k the lane arguments
// care about (odd k pads a pair; 66051/66052 straddle k·255² = 2³²) and
// every column count from a lone tail column to two tiles plus one, run
// through tileStrip as the drivers run them. Off amd64 the full tile is
// the Go tile and the comparison is trivially true.
func TestTilesMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, k := range []int{1, 2, 3, 7, 66051, 66052, 140000} {
		for _, operand := range []string{"extreme", "random"} {
			u8 := func(n int) []uint8 {
				if operand == "random" {
					return randU8(n, rng)
				}
				s := make([]uint8, n)
				for i := range s {
					s[i] = 255
				}
				return s
			}
			f32 := func(n int) []float32 {
				if operand == "random" {
					return randF32(n, rng)
				}
				s := make([]float32, n)
				for i := range s {
					s[i] = floatSpecials[rng.Intn(len(floatSpecials))]
				}
				return s
			}
			const m = mr + 1 // a full panel and a partial one
			aq, af := u8(m*k), f32(mr*k)
			pq, pf := PackAU8(aq, m, k), PackAF32(af, mr, k)
			for nc := 1; nc <= 2*nr+1; nc++ {
				b := u8(k * nc)
				s := new(scratch)
				words, _ := s.packQ(newPatches(s, b, MatrixGeom(k, nc), 0, &s.pu8), 0, 0, nc)
				panel := pq.data[:(k+1)/2]
				got, want := make([]int32, mr*nc), make([]int32, mr*nc)
				tileStrip(panel, words, got, qTile, qTileGo)
				tileStrip(panel, words, want, qTileGo, qTileGo)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("QUInt8 %s k=%d nc=%d elem %d: %d vs %d", operand, k, nc, i, got[i], want[i])
					}
				}
				for _, zp := range []int32{0, 255} {
					gotQ, wantQ := make([]int32, m*nc), make([]int32, m*nc)
					qGEMM(pq, b, gotQ, nc, zp, zp)
					QGEMMRef(aq, b, wantQ, m, k, nc, zp, zp)
					for i := range wantQ {
						if gotQ[i] != wantQ[i] {
							t.Fatalf("QGEMM %s k=%d nc=%d zp %d elem %d: %d vs %d", operand, k, nc, zp, i, gotQ[i], wantQ[i])
						}
					}
				}

				cols := f32(k * nc) // column-major, as fMul packs them
				gotF, wantF := make([]float32, mr*nc), make([]float32, mr*nc)
				tileStrip(pf.data, cols, gotF, fTile, fTileGo)
				tileStrip(pf.data, cols, wantF, fTileGo, fTileGo)
				for i := range wantF {
					g, w := gotF[i], wantF[i]
					if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
						t.Fatalf("float %s k=%d nc=%d elem %d: %v (%#08x) vs %v (%#08x)",
							operand, k, nc, i, g, math.Float32bits(g), w, math.Float32bits(w))
					}
				}
			}
		}
	}
}
