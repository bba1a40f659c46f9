package f16

import (
	"math"
	"testing"
	"testing/quick"
)

// refFromFloat64 is an independent reference conversion: it finds the
// binary16 value nearest to f (ties to even) by scanning the candidate
// neighborhood with exact float64 arithmetic. Slow but obviously correct.
func refFromFloat64(f float64) F16 {
	if math.IsNaN(f) {
		return NaN
	}
	if f > 65519.999 { // halfway point between MaxValue and 2^16
		return Inf
	}
	if f < -65519.999 {
		return NegInf
	}
	// Scan all finite half values is 63488*2 candidates; instead binary
	// search on the ordered mapping of non-negative halves.
	neg := math.Signbit(f)
	af := math.Abs(f)
	lo, hi := uint16(0), uint16(0x7c00) // [0, +Inf]
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if F16(mid).Float64() <= af {
			lo = mid
		} else {
			hi = mid
		}
	}
	// af lies in [val(lo), val(hi)); pick nearest, ties to even.
	vlo, vhi := F16(lo).Float64(), F16(hi).Float64()
	var pick uint16
	switch {
	case af-vlo < vhi-af:
		pick = lo
	case af-vlo > vhi-af:
		pick = hi
	default: // exact tie → even significand
		if lo%2 == 0 {
			pick = lo
		} else {
			pick = hi
		}
	}
	if pick == 0x7c00 && !math.IsInf(af, 1) && af <= 65519.999 {
		// Values in (65504, 65520) round down per RNE since 65520 is the
		// midpoint; the scan above already handles this via the pick logic,
		// but Inf as hi has value +Inf so distance math needs the guard.
		if af-vlo <= 16 {
			pick = 0x7bff
		}
	}
	r := F16(pick)
	if neg {
		r |= 0x8000
	}
	return r
}

func TestRoundTripAllBitPatterns(t *testing.T) {
	for b := 0; b <= 0xffff; b++ {
		h := FromBits(uint16(b))
		if h.IsNaN() {
			got := FromFloat32(h.Float32())
			if !got.IsNaN() {
				t.Fatalf("NaN pattern %#04x round-tripped to non-NaN %#04x", b, got)
			}
			continue
		}
		got := FromFloat32(h.Float32())
		if got != h {
			t.Fatalf("bits %#04x: decode %v re-encode %#04x", b, h.Float32(), got)
		}
	}
}

func TestFromFloat32AgainstReference(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, 2, 65504, -65504, 65505, 65519, 65520, 65536,
		1e-8, -1e-8, 5.96e-8, 6.0e-8, 1.0 / 3.0, math.Pi, math.Sqrt2,
		2.980232238769531e-08,  // exactly half of the smallest subnormal
		2.9802322387695312e-08, // boundary neighborhood
		0.00006103515625,       // MinNormal
		0.00006103515625 / 2,
	}
	for i := 0; i < 4000; i++ {
		cases = append(cases, (float64(i)-2000)/7.3)
		cases = append(cases, math.Ldexp(1+float64(i)/4096, (i%40)-25))
	}
	for _, c := range cases {
		want := refFromFloat64(c)
		got := FromFloat32(float32(c))
		if got != want {
			t.Fatalf("FromFloat32(%g) = %#04x (%g), want %#04x (%g)",
				c, got, got.Float64(), want, want.Float64())
		}
	}
}

func TestFromFloat32PropertyNearest(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) {
			return FromFloat32(x).IsNaN()
		}
		got := FromFloat32(x)
		want := refFromFloat64(float64(x))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecialValues(t *testing.T) {
	if !FromFloat32(float32(math.Inf(1))).IsInf(1) {
		t.Error("+Inf not preserved")
	}
	if !FromFloat32(float32(math.Inf(-1))).IsInf(-1) {
		t.Error("-Inf not preserved")
	}
	if !FromFloat32(float32(math.NaN())).IsNaN() {
		t.Error("NaN not preserved")
	}
	if FromFloat32(0).Bits() != 0 {
		t.Error("+0 bits")
	}
	if FromFloat32(float32(math.Copysign(0, -1))).Bits() != 0x8000 {
		t.Error("-0 bits")
	}
	if One.Float32() != 1.0 {
		t.Error("One constant")
	}
	if MaxValue.Float32() != 65504 {
		t.Errorf("MaxValue = %v", MaxValue.Float32())
	}
	if MinPositive.Float64() != math.Ldexp(1, -24) {
		t.Errorf("MinPositive = %v", MinPositive.Float64())
	}
	if MinNormal.Float64() != math.Ldexp(1, -14) {
		t.Errorf("MinNormal = %v", MinNormal.Float64())
	}
}

func TestOverflowToInf(t *testing.T) {
	if got := FromFloat32(65536); !got.IsInf(1) {
		t.Errorf("65536 → %#04x, want +Inf", got)
	}
	if got := FromFloat32(-1e9); !got.IsInf(-1) {
		t.Errorf("-1e9 → %#04x, want -Inf", got)
	}
	// 65520 is the midpoint between 65504 and 65536: RNE rounds to even,
	// and the candidate with even significand is 65536 (Inf side).
	if got := FromFloat32(65520); !got.IsInf(1) {
		t.Errorf("65520 → %#04x (%v), want +Inf", got, got.Float64())
	}
	if got := FromFloat32(65519); got != MaxValue {
		t.Errorf("65519 → %#04x (%v), want MaxValue", got, got.Float64())
	}
}

func TestUnderflowToZero(t *testing.T) {
	tiny := float32(math.Ldexp(1, -26)) // quarter of MinPositive
	if got := FromFloat32(tiny); got != Zero {
		t.Errorf("2^-26 → %#04x, want +0", got)
	}
	half := float32(math.Ldexp(1, -25)) // exactly half of MinPositive: ties-to-even → 0
	if got := FromFloat32(half); got != Zero {
		t.Errorf("2^-25 → %#04x, want +0 (ties to even)", got)
	}
	justOver := float32(math.Ldexp(1.0001, -25))
	if got := FromFloat32(justOver); got != MinPositive {
		t.Errorf("just over 2^-25 → %#04x, want MinPositive", got)
	}
}

func TestArithmeticRounds(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and the next half (1+2^-10);
	// RNE keeps 1.
	a := One
	b := FromFloat32(float32(math.Ldexp(1, -11)))
	if got := Add(a, b); got != One {
		t.Errorf("1 + 2^-11 = %v, want 1", got.Float64())
	}
	// 1 + 1.5*2^-10 rounds up.
	c := FromFloat32(float32(1.5 * math.Ldexp(1, -10)))
	want := FromFloat32(float32(1 + math.Ldexp(1, -10)*2))
	if got := Add(a, c); got != want {
		t.Errorf("1 + 1.5*2^-10 = %v, want %v", got.Float64(), want.Float64())
	}
	if got := Mul(FromFloat32(3), FromFloat32(7)); got.Float32() != 21 {
		t.Errorf("3*7 = %v", got.Float32())
	}
	if got := Div(FromFloat32(1), FromFloat32(3)); math.Abs(got.Float64()-1.0/3.0) > 1e-3 {
		t.Errorf("1/3 = %v", got.Float64())
	}
}

func TestMulAddSingleRounding(t *testing.T) {
	// Pick operands where round(round(a*b)+c) differs from round(a*b+c).
	// a*b = 1+2^-10+2^-20 region: a = 1+2^-10 (h: 0x3c01), b = 1+2^-10.
	a := FromBits(0x3c01)
	got := MulAdd(a, a, Zero)
	exact := a.Float64() * a.Float64()
	want := refFromFloat64(exact)
	if got != want {
		t.Errorf("MulAdd fused rounding: got %v want %v", got.Float64(), want.Float64())
	}
}

func TestNegAbsSignbit(t *testing.T) {
	v := FromFloat32(2.5)
	if v.Neg().Float32() != -2.5 || !v.Neg().Signbit() {
		t.Error("Neg")
	}
	if v.Neg().Abs() != v {
		t.Error("Abs")
	}
	if !NegZero.IsZero() || !Zero.IsZero() {
		t.Error("IsZero")
	}
	if NaN.Neg().IsNaN() != true {
		t.Error("Neg(NaN) should stay NaN")
	}
}

func TestMinMax(t *testing.T) {
	a, b := FromFloat32(-3), FromFloat32(4)
	if Max(a, b) != b || Min(a, b) != a {
		t.Error("Min/Max ordering")
	}
	if !Less(a, b) || Less(b, a) {
		t.Error("Less")
	}
	if Less(NaN, a) || Less(a, NaN) {
		t.Error("Less with NaN must be false")
	}
}

func TestSliceConversions(t *testing.T) {
	src := []float32{0, 1, -2.5, 1e-6, 70000}
	hs := FromSlice32(src)
	back := ToSlice32(hs)
	if len(back) != len(src) {
		t.Fatal("length")
	}
	if back[0] != 0 || back[1] != 1 || back[2] != -2.5 {
		t.Error("exact values must survive")
	}
	if !math.IsInf(float64(back[4]), 1) {
		t.Error("70000 overflows to +Inf")
	}
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := FromBits(a), FromBits(b)
		if x.IsNaN() || y.IsNaN() {
			return true
		}
		s1, s2 := Add(x, y), Add(y, x)
		if s1.IsNaN() && s2.IsNaN() {
			return true // Inf + -Inf
		}
		// +0 and -0 compare equal numerically; bit patterns may differ only
		// for zero results of opposite-sign operands.
		return s1 == s2 || (s1.IsZero() && s2.IsZero())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMulByOneIdentity(t *testing.T) {
	f := func(a uint16) bool {
		x := FromBits(a)
		if x.IsNaN() {
			return Mul(x, One).IsNaN()
		}
		return Mul(x, One) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAbsNonNegative(t *testing.T) {
	f := func(a uint16) bool {
		x := FromBits(a).Abs()
		return !x.Signbit()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	var sink F16
	for i := 0; i < b.N; i++ {
		sink = FromFloat32(float32(i) * 0.001)
	}
	_ = sink
}

func BenchmarkFloat32(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = F16(i & 0x7bff).Float32()
	}
	_ = sink
}

func BenchmarkMulAdd(b *testing.B) {
	x, y, acc := FromFloat32(1.5), FromFloat32(0.75), Zero
	for i := 0; i < b.N; i++ {
		acc = MulAdd(x, y, acc)
	}
	_ = acc
}

// Float32 must decode every bit pattern exactly as the IEEE definition
// does: finite values to ±significand·2^exponent, infinities to ±Inf and
// each NaN to the quiet NaN carrying its sign and payload.
func TestFloat32AllBitPatterns(t *testing.T) {
	for b := 0; b <= 0xffff; b++ {
		h := FromBits(uint16(b))
		sign, exp, coef := uint32(b>>15), b>>10&0x1f, b&0x3ff
		want := sign << 31
		switch exp {
		case 0x1f:
			want |= 0x7f800000 | uint32(coef)<<13
			if coef != 0 {
				want |= 0x00400000
			}
		case 0:
			want |= math.Float32bits(float32(math.Ldexp(float64(coef), -24)))
		default:
			want |= math.Float32bits(float32(math.Ldexp(float64(1024+coef), exp-25)))
		}
		if got := math.Float32bits(h.Float32()); got != want {
			t.Fatalf("bits %#04x: Float32 %#08x, want %#08x", b, got, want)
		}
	}
}

// RoundNormal must agree with FromFloat32 wherever it reports ok, and
// report ok on ±0 and exactly the magnitudes [2⁻¹⁴, 65520).
func TestRoundNormalMatchesFromFloat32(t *testing.T) {
	check := func(f float32) {
		r, ok := RoundNormal(f)
		a := math.Abs(float64(f))
		if wantOK := a == 0 || (a >= 0x1p-14 && a < 65520); ok != wantOK {
			t.Fatalf("RoundNormal(%g): ok %v, want %v", f, ok, wantOK)
		}
		if want := FromFloat32(f).Float32(); ok && math.Float32bits(r) != math.Float32bits(want) {
			t.Fatalf("RoundNormal(%g) = %g, want %g", f, r, want)
		}
	}
	for _, f := range []float32{0, float32(math.Copysign(0, -1)), 0x1p-14, math.Nextafter32(0x1p-14, 0), 65504, 65519.996, 65520,
		float32(math.Inf(1)), float32(math.NaN()), 1e-45, math.MaxFloat32} {
		check(f)
		check(-f)
	}
	// Every float32 whose dropped 13 bits sit at and around the rounding
	// boundary, across the whole normal-half range.
	for e := uint32(0x38000000); e <= 0x47800000; e += 1 << 23 {
		for m := uint32(0); m < 1<<23; m += 0x1fff - 3 {
			for d := uint32(0); d < 8; d++ {
				check(math.Float32frombits(e | (m+d)&0x7fffff))
				check(-math.Float32frombits(e | (m+d)&0x7fffff))
			}
		}
	}
}
