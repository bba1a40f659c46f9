package gemm

import (
	"math"
	"math/rand"
	"testing"

	"mulayer/internal/cpu"
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

// eachTileLevel runs fn once per tile level the host supports, with that
// level installed as the kernels' tiles, and then reinstalls the level
// chosen at init. It is how the tests reach the levels the init-time
// choice passes over; it is not safe alongside concurrent kernel calls.
func eachTileLevel(fn func(lv tileLevel)) {
	defer func(chosen tileLevel) { tiles = chosen }(tiles)
	for _, lv := range hostTiles() {
		tiles = lv
		fn(lv)
	}
}

// Every tile level the host runs (the AVX2 assembly on amd64 hosts that
// have it) must equal the portable Go tiles bit for bit on the same
// 8-row packs, for every k the lane arguments care about (odd k pads a
// pair; 66051/66052 straddle k·255² = 2³²) and every column count from a
// lone column to two tiles plus one, packed with zero columns up to whole
// tiles and run through tileStrip as the drivers run them over a full
// panel and a partial one. Without AVX2 the only level is the Go tiles
// and the comparison is trivially true.
func TestTilesMatchPortable(t *testing.T) {
	if got := tiles.name == "avx2"; got != cpu.AVX2 {
		t.Fatalf("kernels run %q with cpu.AVX2 %v", tiles.name, cpu.AVX2)
	}
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
			const m = mr + 3 // a full panel and a partial one
			kp := (k + 1) / 2
			aq := u8(m * k)
			pq, pf := PackAU8(aq, m, k), PackAF32(f32(m*k), m, k)
			for nc := 1; nc <= 2*nr+1; nc++ {
				b := u8(k * nc)
				s := new(scratch)
				words, _ := s.packQ(newPatches(s, b, MatrixGeom(k, nc), 0, &s.pu8), 0, 0, nc)
				wp := padCols(nc)
				if len(words) != wp/nr*kp {
					t.Fatalf("k=%d nc=%d: packQ packed %d steps, want %d", k, nc, len(words), wp/nr*kp)
				}
				flat := f32(k * wp)
				cols := make([][nr]float32, wp/nr*k) // as fMul packs them
				for i := range cols {
					copy(cols[i][:], flat[i*nr:])
				}
				for c := nc; c < wp; c++ { // the last panel's padding columns
					for l := 0; l < k; l++ {
						if l < kp && words[(wp/nr-1)*kp+l][c%nr] != 0 {
							t.Fatalf("k=%d nc=%d: packQ padding column %d step %d is not zero", k, nc, c, l)
						}
						cols[(wp/nr-1)*k+l][c%nr] = 0
					}
				}
				var wantQ [2][]int32
				for i, zp := range []int32{0, 255} {
					wantQ[i] = make([]int32, m*nc)
					QGEMMRef(aq, b, wantQ[i], m, k, nc, zp, zp)
				}
				for p := 0; p*mr < m; p++ {
					panelQ, panelF := pq.data[p*kp:(p+1)*kp], pf.data[p*k:(p+1)*k]
					want, wantF := make([]int32, mr*wp), make([]float32, mr*wp)
					tileStrip(panelQ, words, want, qTileGo)
					tileStrip(panelF, cols, wantF, fTileGo)
					eachTileLevel(func(lv tileLevel) {
						got, gotF := make([]int32, mr*wp), make([]float32, mr*wp)
						tileStrip(panelQ, words, got, lv.q)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s QUInt8 %s k=%d nc=%d panel %d elem %d: %d vs %d", lv.name, operand, k, nc, p, i, got[i], want[i])
							}
						}
						tileStrip(panelF, cols, gotF, lv.f)
						for i := range wantF {
							g, w := gotF[i], wantF[i]
							if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
								t.Fatalf("%s float %s k=%d nc=%d panel %d elem %d: %v (%#08x) vs %v (%#08x)",
									lv.name, operand, k, nc, p, i, g, math.Float32bits(g), w, math.Float32bits(w))
							}
						}
					})
				}
				eachTileLevel(func(lv tileLevel) {
					for i, zp := range []int32{0, 255} {
						got := make([]int32, m*nc)
						qGEMM(pq, b, got, nc, zp, zp)
						for j := range got {
							if got[j] != wantQ[i][j] {
								t.Fatalf("%s QGEMM %s k=%d nc=%d zp %d elem %d: %d vs %d", lv.name, operand, k, nc, zp, j, got[j], wantQ[i][j])
							}
						}
					}
				})
			}
		}
	}
	// The run packs at column strides 1–3, each tap's run ending from
	// well inside src to on its last byte, where an 8-byte stride-2 load
	// would pass the end: every level's packs equal the column-by-column
	// gather (packPanelQ, and the table read per column) bit for bit.
	for sw := 1; sw <= 3; sw++ {
		for _, k := range []int{1, 2, 7, 147} {
			for slack := 0; slack <= 8; slack++ {
				off := make([]int32, k)
				for l := range off {
					off[l] = int32(l*5 + rng.Intn(5))
				}
				src := randU8(int(off[k-1])+3*sw+1+slack, rng)
				var lut [256]float32
				for i := range lut {
					lut[i] = float32(i)*0.5 - 7
				}
				at := []int32{0, int32(sw), int32(2 * sw), int32(3 * sw)}
				wantQ := make([][nr]uint32, (k+1)/2)
				wantSums := packPanelQ(wantQ, src, at, off)
				wantF := make([][nr]float32, k)
				for l, o := range off {
					for c := range nr {
						wantF[l][c] = lut[src[int(o)+c*sw]]
					}
				}
				eachTileLevel(func(lv tileLevel) {
					gotQ, gotF := make([][nr]uint32, (k+1)/2), make([][nr]float32, k)
					if sums := lv.runQ(gotQ, src, off, sw); sums != wantSums {
						t.Fatalf("%s runQ sw=%d k=%d slack=%d: sums %v, want %v", lv.name, sw, k, slack, sums, wantSums)
					}
					lv.runLUT(gotF, src, off, &lut, sw)
					for l := range wantF {
						if l < len(wantQ) && gotQ[l] != wantQ[l] || gotF[l] != wantF[l] {
							t.Fatalf("%s run packs sw=%d k=%d slack=%d step %d: %v/%v, %v/%v", lv.name, sw, k, slack, l, gotQ[l%len(gotQ)], wantQ[l%len(wantQ)], gotF[l], wantF[l])
						}
					}
				})
			}
		}
	}
}
