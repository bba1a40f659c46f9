// Package quant implements 8-bit linear ("affine") quantization as used by
// μLayer's processor-friendly quantization and by gemmlowp/TensorFlow Lite
// (Jacob et al., CVPR 2018).
//
// A real value r is represented by an 8-bit unsigned integer q through
//
//	r = Scale * (q - ZeroPoint)
//
// so that 0 and 255 map to (approximately) the minimum and the maximum of
// the represented range and the real value 0 is always exactly
// representable — a requirement for zero padding in convolutions.
//
// Integer-only inference additionally needs requantization: convolution
// accumulates int32 sums whose effective scale is inputScale*weightScale,
// and the result must be rescaled to the output's quantization grid using
// only integer arithmetic. The fixed-point machinery here (quantized
// multipliers, saturating rounding doubling high multiplication, rounding
// right shifts) is bit-compatible with the gemmlowp output pipeline.
package quant

import (
	"fmt"
	"math"
)

// Params describes the affine mapping of one quantized tensor.
type Params struct {
	// Scale is the real-valued size of one quantization step. Must be > 0.
	Scale float32
	// ZeroPoint is the quantized value that represents real 0.
	ZeroPoint uint8
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("quant.Params{scale=%g zp=%d}", p.Scale, p.ZeroPoint)
}

// ChooseParams returns quantization parameters covering the real range
// [min, max], nudged so that real 0 is exactly representable. The range is
// widened to include 0 if necessary (gemmlowp does the same) and degenerate
// ranges get a tiny non-zero scale so division is always safe.
func ChooseParams(min, max float32) Params {
	if min > max {
		min, max = max, min
	}
	// The representable range must straddle zero.
	if min > 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	if max == min {
		// All-zero (or constant-zero) tensor: any positive scale works.
		return Params{Scale: 1.0 / 255.0, ZeroPoint: 0}
	}
	scale := (max - min) / 255.0
	// The zero point is the quantized value corresponding to real 0:
	// zp = -min/scale, rounded and clamped to [0,255].
	zpReal := -float64(min) / float64(scale)
	zp := int(math.Round(zpReal))
	if zp < 0 {
		zp = 0
	} else if zp > 255 {
		zp = 255
	}
	return Params{Scale: scale, ZeroPoint: uint8(zp)}
}

// Quantize maps a real value onto the quantized grid with
// round-to-nearest (away-from-zero ties, matching ARM and gemmlowp) and
// saturation to [0, 255].
func (p Params) Quantize(r float32) uint8 {
	q := math.Round(float64(r)/float64(p.Scale)) + float64(p.ZeroPoint)
	if q < 0 {
		return 0
	}
	if q > 255 {
		return 255
	}
	return uint8(q)
}

// Dequantize maps a quantized value back to its real representative. The
// product is converted explicitly so a caller's add cannot fuse with it
// into an FMA: the result is the rounded product on every architecture.
func (p Params) Dequantize(q uint8) float32 {
	return float32(p.Scale * float32(int32(q)-int32(p.ZeroPoint)))
}

// RangeMin returns the smallest representable real value.
func (p Params) RangeMin() float32 { return p.Dequantize(0) }

// RangeMax returns the largest representable real value.
func (p Params) RangeMax() float32 { return p.Dequantize(255) }

// Multiplier is a positive real factor represented in fixed point as
// M0 * 2^Shift with M0 an int32 in [2^30, 2^31) (i.e. a Q0.31 value in
// [0.5, 1)). It reproduces TensorFlow Lite's quantized multiplier.
type Multiplier struct {
	M0    int32
	Shift int
}

// NewMultiplier decomposes a positive real multiplier into fixed point.
// It panics on non-positive or non-finite input: multipliers in the
// requantization pipeline are always ratios of positive scales.
func NewMultiplier(real float64) Multiplier {
	if real <= 0 || math.IsInf(real, 0) || math.IsNaN(real) {
		panic(fmt.Sprintf("quant: invalid multiplier %g", real))
	}
	frac, shift := math.Frexp(real) // real = frac * 2^shift, frac ∈ [0.5, 1)
	m0 := int64(math.Round(frac * (1 << 31)))
	if m0 == 1<<31 { // rounding may push frac to 1.0
		m0 /= 2
		shift++
	}
	return Multiplier{M0: int32(m0), Shift: shift}
}

// Real returns the real value the multiplier approximates.
func (m Multiplier) Real() float64 {
	return float64(m.M0) / (1 << 31) * math.Pow(2, float64(m.Shift))
}

// Apply computes round(x * m) using only integer arithmetic, matching
// TFLite's MultiplyByQuantizedMultiplier. The pre-multiplication left
// shift saturates (ARM SQSHL semantics) so that pathological grids with a
// real multiplier far above 1 clamp instead of wrapping; any saturated
// value is far outside the 8-bit output range, so the downstream clamp
// yields the correct 0/255.
func (m Multiplier) Apply(x int32) int32 {
	left, right := m.Shift, 0
	if left < 0 {
		left, right = 0, -m.Shift
	}
	shifted := int64(x) << left
	if shifted > math.MaxInt32 {
		shifted = math.MaxInt32
	} else if shifted < math.MinInt32 {
		shifted = math.MinInt32
	}
	return RoundingDivideByPOT(SaturatingRoundingDoublingHighMul(int32(shifted), m.M0), right)
}

// SaturatingRoundingDoublingHighMul returns the high 32 bits of 2*a*b with
// rounding, saturating the single overflow case (both operands MinInt32).
// This is gemmlowp's SRDHM primitive (maps to ARM SQRDMULH).
func SaturatingRoundingDoublingHighMul(a, b int32) int32 {
	if a == math.MinInt32 && b == math.MinInt32 {
		return math.MaxInt32
	}
	ab := int64(a) * int64(b)
	var nudge int64 = 1 << 30
	if ab < 0 {
		nudge = 1 - 1<<30
	}
	// gemmlowp divides (truncation toward zero), it does not arithmetic-shift;
	// the two differ for negative products and only division is antisymmetric.
	return int32((ab + nudge) / (1 << 31))
}

// RoundingDivideByPOT divides by 2^exponent with round-to-nearest
// (ties away from zero), gemmlowp's RDivByPOT primitive.
func RoundingDivideByPOT(x int32, exponent int) int32 {
	if exponent < 0 || exponent > 31 {
		panic(fmt.Sprintf("quant: bad POT exponent %d", exponent))
	}
	if exponent == 0 {
		return x
	}
	mask := int32(1)<<exponent - 1
	remainder := x & mask
	threshold := mask >> 1
	if x < 0 {
		threshold++
	}
	q := x >> exponent
	if remainder > threshold {
		q++
	}
	return q
}

// Requantizer rescales int32 accumulators (scale = inScale*weightScale)
// onto an output quantization grid, clamping to an activation range. It is
// the integer-only output stage of a quantized convolution or FC layer.
type Requantizer struct {
	mult          Multiplier
	outZero       int32
	actMin        int32
	actMax        int32
	Input, Output Params
}

// NewRequantizer builds the output stage for accumulators produced from
// tensors quantized with in and w, targeting out. act constrains the output
// range (use ActNone for no activation).
func NewRequantizer(in, w, out Params, act Activation) Requantizer {
	real := float64(in.Scale) * float64(w.Scale) / float64(out.Scale)
	lo, hi := act.Clamp(out)
	return Requantizer{
		mult:    NewMultiplier(real),
		outZero: int32(out.ZeroPoint),
		actMin:  lo,
		actMax:  hi,
		Input:   in,
		Output:  out,
	}
}

// Requantize maps one int32 accumulator to the output grid.
func (r Requantizer) Requantize(acc int32) uint8 {
	v := r.mult.Apply(acc) + r.outZero
	if v < r.actMin {
		v = r.actMin
	}
	if v > r.actMax {
		v = r.actMax
	}
	return uint8(v)
}

// Strip requantizes a whole accumulator strip:
//
//	dst[i] = r.Requantize(acc[i] + bias)
//
// with the int32 sum wrapping as it does there, bit for bit, and no
// branch per element. Each of Apply's steps becomes straight-line
// integer arithmetic: the saturating left shift a min/max clamp, SRDHM's
// sign-dependent nudge a mask of the product's sign bit (its Go division
// by 2³¹ compiles to a shift with the same sign correction), and
// RoundingDivideByPOT a precomputed mask and threshold whose "round up"
// is the sign bit of threshold − remainder. SRDHM's one saturating case
// needs both operands MinInt32, and a Requantizer's M0 is in [2³⁰, 2³¹),
// so it never arises. dst must hold len(acc) bytes.
func (r Requantizer) Strip(dst []uint8, acc []int32, bias int32) {
	left, right := max(r.mult.Shift, 0), max(-r.mult.Shift, 0)
	if right > 31 {
		panic(fmt.Sprintf("quant: bad POT exponent %d", right))
	}
	m0 := int64(r.mult.M0)
	mask := int32(1)<<right - 1
	threshold := mask >> 1
	zero, lo, hi := r.outZero, r.actMin, r.actMax
	dst = dst[:len(acc)]
	for i, a := range acc {
		x := min(max(int64(a+bias)<<left, math.MinInt32), math.MaxInt32)
		ab := x * m0
		nudge := 1<<30 - ab>>63&(1<<31-1) // 1−2³⁰ for a negative product
		h := int32((ab + nudge) / (1 << 31))
		th := threshold + h>>31&1 // ties away from zero
		v := h>>right + int32(uint32(th-h&mask)>>31)
		dst[i] = uint8(min(max(v+zero, lo), hi))
	}
}

// Activation selects the fused activation applied during requantization.
type Activation int

// Supported fused activations.
const (
	ActNone  Activation = iota // identity
	ActReLU                    // max(0, x)
	ActReLU6                   // min(6, max(0, x))
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	case ActReLU6:
		return "relu6"
	}
	return fmt.Sprintf("Activation(%d)", int(a))
}

// Clamp returns the quantized [lo, hi] range the activation induces on the
// output grid described by p.
func (a Activation) Clamp(p Params) (lo, hi int32) {
	lo, hi = 0, 255
	switch a {
	case ActReLU:
		if z := int32(p.ZeroPoint); z > lo {
			lo = z
		}
	case ActReLU6:
		if z := int32(p.ZeroPoint); z > lo {
			lo = z
		}
		q6 := int32(math.Round(6/float64(p.Scale))) + int32(p.ZeroPoint)
		if q6 < hi {
			hi = q6
		}
		if hi < lo {
			hi = lo
		}
	}
	return lo, hi
}

// Apply applies the activation to a real value (the float-path equivalent
// of the fused quantized clamp).
func (a Activation) Apply(x float32) float32 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
	case ActReLU6:
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
	}
	return x
}

// Observer accumulates the min/max statistics of a stream of real values.
// Running calibration inputs through an F32 network with observers on every
// edge is the post-training analogue of TensorFlow's fake-quantization
// range learning; μLayer assumes those ranges are available.
type Observer struct {
	Min, Max float32
	seen     bool
}

// NewObserver returns an empty observer.
func NewObserver() *Observer { return &Observer{} }

// Observe folds one value into the running range.
func (o *Observer) Observe(v float32) {
	if math.IsNaN(float64(v)) {
		return
	}
	if !o.seen {
		o.Min, o.Max, o.seen = v, v, true
		return
	}
	if v < o.Min {
		o.Min = v
	}
	if v > o.Max {
		o.Max = v
	}
}

// ObserveSlice folds a batch of values into the running range.
func (o *Observer) ObserveSlice(vs []float32) {
	for _, v := range vs {
		o.Observe(v)
	}
}

// Seen reports whether any value has been observed.
func (o *Observer) Seen() bool { return o.seen }

// Params converts the observed range into quantization parameters.
// An untouched observer yields the degenerate unit range.
func (o *Observer) Params() Params {
	if !o.seen {
		return ChooseParams(0, 0)
	}
	return ChooseParams(o.Min, o.Max)
}

// StepTable is a monotone non-decreasing map from float32 onto the 256
// codes of a grid — the output stage of a float pipeline, such as
// x ↦ p.Quantize(act.Apply(x)) — stored as its step points: such a map is
// fully described by the least float32 at which it reaches each code.
// That is the multi-threshold activation of streamlined quantized
// inference. The points are found by bisecting the map itself over
// ordered float32 keys, so the table is exact by construction: it returns
// the map's code for every non-NaN input, including ±Inf, and replaces a
// float64 division and a math.Round per element with a multiply, a
// conversion and two comparisons.
type StepTable struct {
	// x·inv + off is the estimate of x's code, rounded half up.
	inv, off float32
	// lo and hi are the codes of -Inf and +Inf: every input lands in
	// [lo, hi] (an activation may keep hi below 255).
	lo, hi int64
	// steps[q] is the least input reaching code q, for lo < q ≤ hi;
	// steps[lo] is -Inf and steps[hi+1] NaN, so every code's interval is
	// [steps[q], steps[q+1]) and no comparison needs a range check.
	steps [257]float32
}

// NewStepTable builds the step table of f, which must be monotone
// non-decreasing over non-NaN float32 and land on grid p (whose
// x/Scale + ZeroPoint is the lookup's first estimate). Apply and Quantize
// are both monotone for Scale > 0, and so is any composition with a
// round-to-nearest conversion. The build costs about 8k calls of f, so
// callers build a table once per output grid.
func NewStepTable(p Params, f func(x float32) uint8) *StepTable {
	code := func(k uint32) int64 { return int64(f(fromOrderedKey(k))) }
	t := &StepTable{off: float32(p.ZeroPoint) + 0.5}
	// A subnormal Scale would make 1/Scale infinite and 0·(1/Scale) NaN;
	// any finite estimate is fine, the lookup corrects it.
	t.inv = float32(min(1/float64(p.Scale), math.MaxFloat32))
	lo, hi := orderedKey(float32(math.Inf(-1))), orderedKey(float32(math.Inf(1)))
	t.lo, t.hi = code(lo), code(hi)
	t.steps[t.lo] = float32(math.Inf(-1))
	t.steps[t.hi+1] = float32(math.NaN())
	for q := t.lo + 1; q <= t.hi; q++ {
		// Invariant: code(lo) < q ≤ code(hi); the steps rise with q, so
		// each search starts at the previous step.
		for a, b := lo, hi; ; {
			if b-a == 1 {
				lo = b
				break
			}
			if m := a + (b-a)/2; code(m) >= q {
				b = m
			} else {
				a = m
			}
		}
		t.steps[q] = fromOrderedKey(lo)
		lo-- // keep code(lo) < q+1 for the next search's invariant
	}
	return t
}

// Quantize returns the map's code for any non-NaN x. The estimate,
// clamped to [lo, hi], is the code almost always; the table confirms it
// with two comparisons, and otherwise walks it to the code whose interval
// holds x (the sentinels end both walks).
func (t *StepTable) Quantize(x float32) uint8 {
	// The clamp to [lo, hi] is arithmetic, not branches: with ReLU,
	// landing on lo is a coin flip. Past int32 the conversion's result
	// is the platform's (amd64 gives MinInt32); any start in [lo, hi] is
	// walked to the right code.
	q := int64(int32(float32(x*t.inv) + t.off))
	d := q - t.lo
	q = t.lo + d&^(d>>63) // max(q, lo)
	d = q - t.hi
	q = t.hi + d&(d>>63) // min(q, hi)
	for x >= t.steps[q+1] {
		q++
	}
	for x < t.steps[q] {
		q--
	}
	return uint8(q)
}

// orderedKey maps a non-NaN float32 to a uint32 whose unsigned order is
// the float order (-0 sorts just below +0); fromOrderedKey inverts it.
func orderedKey(f float32) uint32 {
	u := math.Float32bits(f)
	if u&(1<<31) != 0 {
		return ^u
	}
	return u | 1<<31
}

func fromOrderedKey(k uint32) float32 {
	if k&(1<<31) != 0 {
		return math.Float32frombits(k &^ (1 << 31))
	}
	return math.Float32frombits(^k)
}
