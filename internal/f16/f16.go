// Package f16 implements IEEE 754-2008 binary16 ("half precision")
// floating-point values in software.
//
// Mobile GPUs such as the ARM Mali family execute the OpenCL half data
// type natively; μLayer's processor-friendly quantization makes the GPU
// compute in F16. This package reproduces those numerics on hosts without
// native half-precision support: every arithmetic helper rounds its result
// back to binary16 (round-to-nearest-even), exactly as a half-precision ALU
// would.
package f16

import "math"

// F16 is an IEEE 754 binary16 value stored in its 16-bit interchange format:
// 1 sign bit, 5 exponent bits (bias 15), 10 significand bits.
type F16 uint16

// Frequently used constants, expressed in binary16 interchange format.
const (
	Zero        F16 = 0x0000 // +0
	NegZero     F16 = 0x8000 // -0
	One         F16 = 0x3c00 // 1.0
	Inf         F16 = 0x7c00 // +Inf
	NegInf      F16 = 0xfc00 // -Inf
	NaN         F16 = 0x7e00 // a quiet NaN
	MaxValue    F16 = 0x7bff // 65504, the largest finite binary16
	MinNormal   F16 = 0x0400 // 2^-14, the smallest positive normal
	MinPositive F16 = 0x0001 // 2^-24, the smallest positive subnormal
)

// FromFloat32 converts a float32 to binary16 using round-to-nearest-even,
// the default IEEE 754 rounding mode and the one implemented by hardware
// F32→F16 conversion instructions.
func FromFloat32(f float32) F16 {
	u := math.Float32bits(f)
	sign := (u >> 16) & 0x8000
	exp := u & 0x7f800000
	coef := u & 0x007fffff

	if exp == 0x7f800000 { // Inf or NaN
		if coef == 0 {
			return F16(sign | 0x7c00)
		}
		// NaN: keep the top significand bits, force a quiet NaN if the
		// truncated payload would read as infinity.
		nan := uint32(sign | 0x7c00 | coef>>13)
		if nan&0x03ff == 0 {
			nan |= 0x0200
		}
		return F16(nan)
	}

	halfExp := int32(exp>>23) - 127 + 15
	if halfExp >= 0x1f { // overflow → ±Inf
		return F16(sign | 0x7c00)
	}
	if halfExp <= 0 { // subnormal half or underflow to zero
		if 14-halfExp > 24 {
			return F16(sign) // rounds to ±0 even with RNE
		}
		c := coef | 0x00800000 // restore the implicit leading bit
		shift := uint32(14 - halfExp)
		halfCoef := c >> shift
		roundBit := uint32(1) << (shift - 1)
		if c&roundBit != 0 && c&(3*roundBit-1) != 0 {
			halfCoef++ // carries into the exponent field correctly
		}
		return F16(sign | halfCoef)
	}

	// Normal number: drop 13 significand bits with round-to-nearest-even.
	halfCoef := coef >> 13
	const roundBit = uint32(1) << 12
	h := sign | uint32(halfExp)<<10 | halfCoef
	if coef&roundBit != 0 && coef&(3*roundBit-1) != 0 {
		h++ // mantissa overflow carries into the exponent (may yield Inf)
	}
	return F16(h)
}

// Float32 converts the binary16 value to float32. The conversion is exact:
// every binary16 value is representable as a float32. A normal number
// only moves into place: the sign-extended bits shifted left 13 put the
// significand and exponent in the float32 fields, the spare sign copies
// are cleared, and 0x38000000 rebiases the exponent by 127−15 = 112. The
// rare cases are loop-free patches of that word — a zero or subnormal is
// its 10-bit significand times 2⁻²⁴ (exact in float32), an Inf or NaN
// gets the all-ones exponent and a NaN the quiet bit — so the whole
// conversion stays within the inliner's budget (a call to an out-of-line
// helper would not: the inliner charges 57 for any call it cannot
// inline).
func (h F16) Float32() float32 {
	u := uint32(int16(h))<<13&^0x70000000 + 0x38000000
	switch h & 0x7c00 {
	case 0:
		u = uint32(h&0x8000)<<16 | math.Float32bits(float32(h&0x3ff)*0x1p-24)
	case 0x7c00:
		u += 0x38000000
		if h&0x3ff != 0 {
			u |= 0x00400000
		}
	}
	return math.Float32frombits(u)
}

// RoundNormal returns FromFloat32(f).Float32() without leaving the
// float32 format, and ok = false where that shortcut does not hold. For
// ±0 and 2⁻¹⁴ ≤ |f| < 65520 the binary16 result is zero or normal, so
// rounding to binary16 is rounding f's 23-bit significand to 10 bits,
// nearest-even at bit 13: add 0xfff plus the kept part's lowest bit and
// clear the 13 dropped bits (a carry out of the significand correctly
// bumps the exponent). Subnormal results, overflow to ±Inf and NaNs are
// left to FromFloat32.
func RoundNormal(f float32) (r float32, ok bool) {
	u := math.Float32bits(f)
	if a := u &^ 0x80000000; a-0x38800000 >= 0x477ff000-0x38800000 && a != 0 {
		return 0, false
	}
	return math.Float32frombits((u + 0xfff + (u>>13)&1) &^ 0x1fff), true
}

// Float64 converts the binary16 value to float64 exactly.
func (h F16) Float64() float64 { return float64(h.Float32()) }

// Bits returns the raw interchange-format bits.
func (h F16) Bits() uint16 { return uint16(h) }

// FromBits reinterprets raw interchange-format bits as an F16.
func FromBits(b uint16) F16 { return F16(b) }

// IsNaN reports whether h is an IEEE 754 "not-a-number" value.
func (h F16) IsNaN() bool { return h&0x7c00 == 0x7c00 && h&0x03ff != 0 }

// IsInf reports whether h is an infinity, according to sign:
// sign > 0 checks +Inf, sign < 0 checks -Inf, sign == 0 checks either.
func (h F16) IsInf(sign int) bool {
	if h&0x7fff != 0x7c00 {
		return false
	}
	neg := h&0x8000 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

// IsZero reports whether h is +0 or -0.
func (h F16) IsZero() bool { return h&0x7fff == 0 }

// Signbit reports whether h is negative or negative zero.
func (h F16) Signbit() bool { return h&0x8000 != 0 }

// Neg returns -h. Negation is exact (a sign-bit flip) for all values
// including NaNs, mirroring hardware FNEG.
func (h F16) Neg() F16 { return h ^ 0x8000 }

// Abs returns |h| by clearing the sign bit.
func (h F16) Abs() F16 { return h &^ 0x8000 }

// Add returns a+b rounded to binary16, as a half-precision ALU would
// compute it.
func Add(a, b F16) F16 { return FromFloat32(a.Float32() + b.Float32()) }

// Sub returns a-b rounded to binary16.
func Sub(a, b F16) F16 { return FromFloat32(a.Float32() - b.Float32()) }

// Mul returns a*b rounded to binary16.
func Mul(a, b F16) F16 { return FromFloat32(a.Float32() * b.Float32()) }

// Div returns a/b rounded to binary16.
func Div(a, b F16) F16 { return FromFloat32(a.Float32() / b.Float32()) }

// MulAdd returns a*b+c with a single binary16 rounding of the final result,
// modeling a fused multiply-add unit. The intermediate product is held in
// float32, which is wide enough to make the fused semantics exact for
// binary16 operands.
func MulAdd(a, b, c F16) F16 {
	// The product of two binary16 values needs at most 22 significand
	// bits, so its float32 rounding is exact and converting it (which
	// keeps arm64 from emitting FMADDS) changes nothing.
	return FromFloat32(float32(a.Float32()*b.Float32()) + c.Float32())
}

// Less reports whether a < b under IEEE 754 ordering (NaN compares false).
func Less(a, b F16) bool { return a.Float32() < b.Float32() }

// Max returns the larger of a and b; NaNs propagate as in math.Max.
func Max(a, b F16) F16 {
	return FromFloat32(float32(math.Max(a.Float64(), b.Float64())))
}

// Min returns the smaller of a and b; NaNs propagate as in math.Min.
func Min(a, b F16) F16 {
	return FromFloat32(float32(math.Min(a.Float64(), b.Float64())))
}

// FromSlice32 converts a float32 slice to a freshly allocated F16 slice.
func FromSlice32(src []float32) []F16 {
	dst := make([]F16, len(src))
	for i, v := range src {
		dst[i] = FromFloat32(v)
	}
	return dst
}

// ToSlice32 converts an F16 slice to a freshly allocated float32 slice.
func ToSlice32(src []F16) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = v.Float32()
	}
	return dst
}
