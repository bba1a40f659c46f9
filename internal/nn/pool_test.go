package nn

import (
	"testing"

	"mulayer/internal/cpu"
	"mulayer/internal/tensor"
)

// poolLevels lists the max-pass bodies this host runs, as settings of
// poolVector: the AVX2 body where the CPU has it, and the Go body.
func poolLevels() []bool {
	if cpu.AVX2 {
		return []bool{true, false}
	}
	return []bool{false}
}

// eachPoolLevel runs fn once per max-pass body the host supports, with
// that body installed, and then reinstalls the one chosen at init. It is
// not safe alongside concurrent pooling.
func eachPoolLevel(t *testing.T, fn func(t *testing.T)) {
	defer func(v bool) { poolVector = v }(poolVector)
	for _, v := range poolLevels() {
		poolVector = v
		name := "go"
		if v {
			name = "avx2"
		}
		t.Run(name, fn)
	}
}

// The zoo's max-pool geometries at every body the host runs, on planes
// 1–57 wide and high, several batch elements and arbitrary channel
// ranges, equal the per-tap walk's clamped windows bit for bit. Planes
// of 4×4, 7×7 and 57×57 bytes put the masks' periods below, near and
// far above one 32-byte vector; a block shorter than a vector runs the
// Go body at either level.
func TestMaxPoolLevels(t *testing.T) {
	if cpu.AVX2 != poolVector {
		t.Fatalf("poolVector %v with cpu.AVX2 %v", poolVector, cpu.AVX2)
	}
	geoms := []struct{ k, stride, pad int }{{3, 2, 1}, {3, 1, 1}, {3, 2, 0}, {2, 2, 0}}
	eachPoolLevel(t, func(t *testing.T) {
		it := 0
		for _, g := range geoms {
			for w := 1; w <= 57; w++ {
				l := &Pool{LayerName: "p", Max: true, KH: g.k, KW: g.k, StrideH: g.stride, StrideW: g.stride, PadH: g.pad, PadW: g.pad}
				h := 1 + (w*13)%57
				if w%4 == 0 {
					h = w // square planes: 4×4, 28×28, 56×56
				}
				c := 1 + w%5
				in := tensor.New(tensor.Shape{N: 2, C: c, H: h, W: w})
				c0 := w % c
				checkPoolWalk(t, it, l, in, c0, c0+1+(w/3)%(c-c0))
				it++
			}
		}
	})
}

// FuzzMaxPoolQ holds every max-pass body to the per-tap walk over random
// windows (k up to 7 each way), strides up to 3, padding up to k−1,
// planes up to 57×57, one or two batch elements and any channel range.
func FuzzMaxPoolQ(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(4), uint8(9), uint8(55), uint8(55), uint8(3), uint8(0), uint8(3), uint64(1))   // GoogLeNet's stage pool
	f.Add(uint8(2), uint8(2), uint8(0), uint8(9), uint8(6), uint8(6), uint8(7), uint8(1), uint8(6), uint64(2))     // an Inception branch pool on 7×7
	f.Add(uint8(2), uint8(2), uint8(0), uint8(9), uint8(3), uint8(3), uint8(23), uint8(2), uint8(7), uint64(3))    // on 4×4, two batch elements
	f.Add(uint8(1), uint8(1), uint8(4), uint8(0), uint8(13), uint8(13), uint8(2), uint8(0), uint8(2), uint64(4))   // 2×2 stride 2, as VGG
	f.Add(uint8(6), uint8(4), uint8(8), uint8(38), uint8(56), uint8(30), uint8(17), uint8(5), uint8(2), uint64(5)) // wide padding, outputs past the plane
	f.Add(uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint64(6))     // 1×1 window on a 1×1 plane
	f.Fuzz(func(t *testing.T, khs, kws, ss, ps, hs, ws, cs, c0s, c1s uint8, seed uint64) {
		kh, kw := int(khs%7)+1, int(kws%7)+1
		l := &Pool{LayerName: "fuzz", Max: true, KH: kh, KW: kw, StrideH: int(ss%3) + 1, StrideW: int(ss/3%3) + 1,
			PadH: int(ps%8) % kh, PadW: int(ps/8%8) % kw}
		in := tensor.New(tensor.Shape{N: 1 + int(cs/16%2), C: 1 + int(cs%8), H: 1 + int(hs%57), W: 1 + int(ws%57)})
		c0, c1 := int(c0s)%in.Shape.C, int(c1s)%in.Shape.C
		if c0 > c1 {
			c0, c1 = c1, c0
		}
		eachPoolLevel(t, func(t *testing.T) {
			checkPoolWalk(t, int(seed%(1<<31)), l, in, c0, c1+1)
		})
	})
}

// The masks of a pass are one period and a vector long, so a vector read
// at any phase stays inside its row; the period is a multiple of the
// cycle of at least 32 bytes.
func TestMaxPassMaskPeriods(t *testing.T) {
	for _, cycle := range []int{1, 4, 7, 16, 31, 32, 33, 49, 3136} {
		ps := newMaxPass(3, 1, 1, cycle, cycle)
		if ps.period%cycle != 0 || ps.period < 32 || ps.period-cycle >= 32 {
			t.Errorf("cycle %d: period %d", cycle, ps.period)
		}
		if got, want := len(ps.mask), 3*(ps.period+32); got != want {
			t.Errorf("cycle %d: %d mask bytes, want %d", cycle, got, want)
		}
		for p := range ps.period + 32 {
			x := p % cycle
			for tap, in := range []bool{x >= 1, true, x+1 < cycle} {
				if got := ps.mask[tap*(ps.period+32)+p] == 0xff; got != in {
					t.Fatalf("cycle %d tap %d phase %d: inside %v, want %v", cycle, tap, p, got, in)
				}
			}
		}
	}
}
