package quant

import (
	"math"
	"math/rand"
	"testing"

	"mulayer/internal/cpu"
	"mulayer/internal/f16"
)

// FuzzChooseParams checks the affine-grid invariants on arbitrary ranges:
// positive scale, exact zero representability, and range coverage.
func FuzzChooseParams(f *testing.F) {
	f.Add(float32(-1), float32(1))
	f.Add(float32(0), float32(0))
	f.Add(float32(2), float32(10))
	f.Add(float32(-10), float32(-2))
	f.Add(float32(-6e4), float32(6e4))
	f.Fuzz(func(t *testing.T, lo, hi float32) {
		if math.IsNaN(float64(lo)) || math.IsNaN(float64(hi)) ||
			math.IsInf(float64(lo), 0) || math.IsInf(float64(hi), 0) {
			return
		}
		if math.Abs(float64(lo)) > 1e30 || math.Abs(float64(hi)) > 1e30 {
			return
		}
		p := ChooseParams(lo, hi)
		if p.Scale <= 0 || math.IsNaN(float64(p.Scale)) || math.IsInf(float64(p.Scale), 0) {
			t.Fatalf("ChooseParams(%g,%g) scale %g", lo, hi, p.Scale)
		}
		if got := p.Dequantize(p.Quantize(0)); got != 0 {
			t.Fatalf("zero not exactly representable: %g", got)
		}
		// Quantize never escapes [0,255] by construction of uint8, but the
		// round-trip must stay within half a step inside the range.
		for _, v := range []float32{p.RangeMin(), p.RangeMax(), (p.RangeMin() + p.RangeMax()) / 2} {
			back := p.Dequantize(p.Quantize(v))
			if math.Abs(float64(back-v)) > float64(p.Scale)*0.5001 {
				t.Fatalf("round-trip error for %g: got %g (scale %g)", v, back, p.Scale)
			}
		}
	})
}

// FuzzRequantize checks the fixed-point pipeline against the float
// reference on arbitrary accumulators and grids.
func FuzzRequantize(f *testing.F) {
	f.Add(int32(0), float32(2), float32(0.5), float32(4))
	f.Add(int32(100000), float32(1), float32(1), float32(1))
	f.Add(int32(-100000), float32(3), float32(0.25), float32(8))
	f.Fuzz(func(t *testing.T, acc int32, inR, wR, outR float32) {
		for _, r := range []float32{inR, wR, outR} {
			if math.IsNaN(float64(r)) || math.IsInf(float64(r), 0) || r <= 1e-6 || r > 1e6 {
				return
			}
		}
		if acc > 1<<24 || acc < -(1<<24) {
			return
		}
		in := ChooseParams(-inR, inR)
		w := ChooseParams(-wR, wR)
		out := ChooseParams(-outR, outR)
		req := NewRequantizer(in, w, out, ActNone)
		got := req.Requantize(acc)
		real := float64(acc) * float64(in.Scale) * float64(w.Scale)
		want := math.Round(real/float64(out.Scale)) + float64(out.ZeroPoint)
		if want < 0 {
			want = 0
		}
		if want > 255 {
			want = 255
		}
		if math.Abs(float64(got)-want) > 1 {
			t.Fatalf("requantize(%d) grids(%v,%v,%v) = %d, float says %g", acc, in, w, out, got, want)
		}
	})
}

// FuzzRoundingDivideByPOT checks the rounding division against float math.
func FuzzRoundingDivideByPOT(f *testing.F) {
	f.Add(int32(100), uint8(3))
	f.Add(int32(-100), uint8(3))
	f.Add(int32(0), uint8(0))
	f.Fuzz(func(t *testing.T, x int32, e uint8) {
		exp := int(e % 31)
		got := RoundingDivideByPOT(x, exp)
		want := math.Round(float64(x) / math.Pow(2, float64(exp)))
		// math.Round ties away from zero, matching the primitive.
		if float64(got) != want {
			t.Fatalf("RDivByPOT(%d,%d) = %d, want %g", x, exp, got, want)
		}
	})
}

// FuzzHalfSums holds the GPU half's output stage at every host level to
// the f16 chain it stands for — round each float32 sum to binary16, add
// the half bias with f16.Add, widen, activate, quantize — on a strip of
// random sums (random bit patterns, values around the grid's codes and
// their binary16 rounding edges), under any half bias (NaN, ±Inf and
// subnormals included), grid and activation. The stage is HalfSums with
// the chain finishing every group it leaves, as the nn half stage runs it.
func FuzzHalfSums(f *testing.F) {
	f.Add(int64(1), uint16(0x3c00), float32(0.05), uint8(117), uint8(1))
	f.Add(int64(2), uint16(0x7e00), float32(6.0/255), uint8(0), uint8(2)) // NaN bias
	f.Add(int64(3), uint16(0xfc00), float32(0.02), uint8(255), uint8(0))  // -Inf bias
	f.Add(int64(4), uint16(0x0001), float32(1e-3), uint8(3), uint8(1))    // subnormal bias
	f.Add(int64(5), uint16(0x8000), float32(3e-5), uint8(128), uint8(2))  // -0 bias, fine grid
	f.Fuzz(func(t *testing.T, seed int64, bias uint16, scale float32, zp, act uint8) {
		if !(scale > 0) || math.IsInf(float64(scale), 0) {
			return
		}
		p, a, b := Params{Scale: scale, ZeroPoint: zp}, Activation(act%3), f16.FromBits(bias)
		chain := func(s float32) uint8 { return p.Quantize(a.Apply(f16.Add(f16.FromFloat32(s), b).Float32())) }
		st := NewStepTable(p, func(x float32) uint8 { return p.Quantize(a.Apply(f16.FromFloat32(x).Float32())) })
		rng := rand.New(rand.NewSource(seed))
		acc := make([]float32, 8*6+5)
		for i := range acc {
			switch rng.Intn(4) {
			case 0:
				acc[i] = math.Float32frombits(rng.Uint32())
			case 1: // a code's edge on the grid, nudged by a few ULPs
				x := (float32(rng.Intn(256)-int(zp)) - 0.5) * scale
				acc[i] = math.Float32frombits(math.Float32bits(x) + uint32(rng.Intn(5)) - 2)
			default:
				acc[i] = float32(rng.NormFloat64()*64) * scale
			}
		}
		defer func(v bool) { vector = v }(vector)
		for _, v := range []bool{cpu.AVX2, false} {
			vector = v
			got := make([]uint8, len(acc))
			for i := 0; i < len(acc); {
				if !b.IsNaN() {
					i += st.HalfSums(got[i:], acc[i:], b.Float32())
				}
				for end := min(i+8, len(acc)); i < end; i++ {
					got[i] = chain(acc[i])
				}
			}
			for i, s := range acc {
				if want := chain(s); got[i] != want {
					t.Fatalf("vector=%v %v %v bias %#04x sum %g (%#08x): %d, chain %d", v, p, a, bias, s, math.Float32bits(s), got[i], want)
				}
			}
		}
	})
}
