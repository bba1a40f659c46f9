package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChooseParamsBasics(t *testing.T) {
	p := ChooseParams(-1, 1)
	if p.Scale <= 0 {
		t.Fatal("scale must be positive")
	}
	if got := p.Dequantize(p.ZeroPoint); got != 0 {
		t.Fatalf("real zero not representable: %v", got)
	}
	if p.RangeMin() > -1+p.Scale || p.RangeMax() < 1-p.Scale {
		t.Fatalf("range [%v,%v] does not cover [-1,1]", p.RangeMin(), p.RangeMax())
	}
}

func TestChooseParamsAllPositiveRange(t *testing.T) {
	// Range that excludes zero must be widened so zero is representable.
	p := ChooseParams(2, 10)
	if p.ZeroPoint != 0 {
		t.Errorf("positive-only range should pin zero point at 0, got %d", p.ZeroPoint)
	}
	if p.Dequantize(0) != 0 {
		t.Error("zero not representable")
	}
}

func TestChooseParamsAllNegativeRange(t *testing.T) {
	p := ChooseParams(-10, -2)
	if p.ZeroPoint != 255 {
		t.Errorf("negative-only range should pin zero point at 255, got %d", p.ZeroPoint)
	}
}

func TestChooseParamsDegenerate(t *testing.T) {
	p := ChooseParams(0, 0)
	if p.Scale <= 0 {
		t.Fatal("degenerate range must still have positive scale")
	}
	if p.Quantize(0) != p.ZeroPoint {
		t.Fatal("zero must quantize to the zero point")
	}
}

func TestChooseParamsSwappedArgs(t *testing.T) {
	a, b := ChooseParams(-3, 5), ChooseParams(5, -3)
	if a != b {
		t.Fatalf("argument order should not matter: %v vs %v", a, b)
	}
}

func TestQuantizeSaturates(t *testing.T) {
	p := ChooseParams(-1, 1)
	if p.Quantize(100) != 255 {
		t.Error("over-range must saturate to 255")
	}
	if p.Quantize(-100) != 0 {
		t.Error("under-range must saturate to 0")
	}
}

func TestRoundTripWithinHalfStep(t *testing.T) {
	p := ChooseParams(-6, 6)
	for i := 0; i < 1000; i++ {
		v := float32(i-500) / 500 * 6
		got := p.Dequantize(p.Quantize(v))
		if d := math.Abs(float64(got - v)); d > float64(p.Scale)/2+1e-6 {
			t.Fatalf("round-trip error %v for %v exceeds half a step %v", d, v, p.Scale/2)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(lo, hi float32, x float32) bool {
		if math.IsNaN(float64(lo)) || math.IsNaN(float64(hi)) || math.IsNaN(float64(x)) {
			return true
		}
		if math.Abs(float64(lo)) > 1e6 || math.Abs(float64(hi)) > 1e6 {
			return true
		}
		p := ChooseParams(lo, hi)
		// Clamp x into the representable range first.
		if x < p.RangeMin() {
			x = p.RangeMin()
		}
		if x > p.RangeMax() {
			x = p.RangeMax()
		}
		got := p.Dequantize(p.Quantize(x))
		return math.Abs(float64(got-x)) <= float64(p.Scale)*0.5001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplierDecomposition(t *testing.T) {
	for _, m := range []float64{1, 0.5, 0.25, 2, 1.5, 0.0001, 0.9999, 123.456, 1e-9} {
		q := NewMultiplier(m)
		if q.M0 < 1<<30 {
			t.Fatalf("M0 %d not normalized for %g", q.M0, m)
		}
		if rel := math.Abs(q.Real()-m) / m; rel > 1e-9 {
			t.Fatalf("multiplier %g decomposes to %g (rel err %g)", m, q.Real(), rel)
		}
	}
}

func TestMultiplierPanicsOnInvalid(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMultiplier(%g) did not panic", bad)
				}
			}()
			NewMultiplier(bad)
		}()
	}
}

func TestMultiplierApplyMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		m := math.Exp(rng.Float64()*10 - 7) // ~[1e-3, 20]
		q := NewMultiplier(m)
		x := int32(rng.Intn(1<<20) - 1<<19)
		// Keep x*(1<<left) within int32 for the fixed-point path.
		if q.Shift > 0 && int64(x)<<q.Shift > math.MaxInt32/2 {
			continue
		}
		got := q.Apply(x)
		want := math.Round(float64(x) * m)
		if math.Abs(float64(got)-want) > 1 {
			t.Fatalf("Apply(%d)*%g = %d, float says %g", x, m, got, want)
		}
	}
}

func TestSRDHM(t *testing.T) {
	if got := SaturatingRoundingDoublingHighMul(math.MinInt32, math.MinInt32); got != math.MaxInt32 {
		t.Errorf("saturation case = %d", got)
	}
	// 2*a*b>>32 with rounding: a=b=1<<30 → 2*2^60 = 2^61, >>31 = 2^30.
	if got := SaturatingRoundingDoublingHighMul(1<<30, 1<<30); got != 1<<29 {
		t.Errorf("2^30*2^30 high mul = %d, want %d", got, 1<<29)
	}
	// Symmetry in sign.
	if SaturatingRoundingDoublingHighMul(12345, -678) != -SaturatingRoundingDoublingHighMul(12345, 678) {
		t.Error("SRDHM should be antisymmetric for these operands")
	}
}

func TestRoundingDivideByPOT(t *testing.T) {
	cases := []struct {
		x    int32
		e    int
		want int32
	}{
		{0, 4, 0},
		{16, 4, 1},
		{15, 4, 1},  // 0.9375 rounds to 1
		{8, 4, 1},   // exactly 0.5 rounds away from zero → 1
		{7, 4, 0},   // 0.4375 rounds to 0
		{-8, 4, -1}, // -0.5 rounds away from zero → -1
		{-7, 4, 0},
		{-16, 4, -1},
		{100, 0, 100},
	}
	for _, c := range cases {
		if got := RoundingDivideByPOT(c.x, c.e); got != c.want {
			t.Errorf("RDivByPOT(%d,%d) = %d, want %d", c.x, c.e, got, c.want)
		}
	}
}

func TestRoundingDivideByPOTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative exponent must panic")
		}
	}()
	RoundingDivideByPOT(1, -1)
}

func TestRequantizerMatchesFloatReference(t *testing.T) {
	in := ChooseParams(-2, 2)
	w := ChooseParams(-0.5, 0.5)
	out := ChooseParams(-4, 4)
	r := NewRequantizer(in, w, out, ActNone)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		acc := int32(rng.Intn(200000) - 100000)
		real := float64(acc) * float64(in.Scale) * float64(w.Scale)
		wantQ := math.Round(real/float64(out.Scale)) + float64(out.ZeroPoint)
		if wantQ < 0 {
			wantQ = 0
		}
		if wantQ > 255 {
			wantQ = 255
		}
		got := r.Requantize(acc)
		if math.Abs(float64(got)-wantQ) > 1 {
			t.Fatalf("acc %d: requantized %d, float reference %g", acc, got, wantQ)
		}
	}
}

func TestRequantizerReLUClamps(t *testing.T) {
	in := ChooseParams(-1, 1)
	w := ChooseParams(-1, 1)
	out := ChooseParams(-1, 1)
	r := NewRequantizer(in, w, out, ActReLU)
	// A strongly negative accumulator must clamp to the zero point.
	if got := r.Requantize(-1000000); got != out.ZeroPoint {
		t.Errorf("ReLU clamp: got %d, want zero point %d", got, out.ZeroPoint)
	}
}

func TestActivationClampReLU6(t *testing.T) {
	p := ChooseParams(0, 12)
	lo, hi := ActReLU6.Clamp(p)
	if lo != int32(p.ZeroPoint) {
		t.Errorf("lo = %d", lo)
	}
	want6 := int32(math.Round(6/float64(p.Scale))) + int32(p.ZeroPoint)
	if hi != want6 {
		t.Errorf("hi = %d want %d", hi, want6)
	}
	if v := ActReLU6.Apply(9); v != 6 {
		t.Errorf("Apply(9) = %v", v)
	}
	if v := ActReLU6.Apply(-3); v != 0 {
		t.Errorf("Apply(-3) = %v", v)
	}
	if v := ActNone.Apply(-3); v != -3 {
		t.Errorf("ActNone.Apply(-3) = %v", v)
	}
	if v := ActReLU.Apply(5); v != 5 {
		t.Errorf("ActReLU.Apply(5) = %v", v)
	}
}

func TestObserver(t *testing.T) {
	o := NewObserver()
	if o.Seen() {
		t.Fatal("fresh observer should be empty")
	}
	p := o.Params()
	if p.Scale <= 0 {
		t.Fatal("empty observer params must be usable")
	}
	o.ObserveSlice([]float32{3, -1, 2})
	o.Observe(float32(math.NaN())) // ignored
	if o.Min != -1 || o.Max != 3 {
		t.Fatalf("range [%v,%v]", o.Min, o.Max)
	}
	p = o.Params()
	if p.RangeMin() > -1+p.Scale || p.RangeMax() < 3-p.Scale {
		t.Fatal("params must cover observed range")
	}
}

func TestPropertyRequantizeMonotone(t *testing.T) {
	in := ChooseParams(-3, 3)
	w := ChooseParams(-1, 1)
	out := ChooseParams(-6, 6)
	r := NewRequantizer(in, w, out, ActNone)
	f := func(a, b int32) bool {
		a %= 1 << 24
		b %= 1 << 24
		if a > b {
			a, b = b, a
		}
		return r.Requantize(a) <= r.Requantize(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRequantize(b *testing.B) {
	r := NewRequantizer(ChooseParams(-2, 2), ChooseParams(-1, 1), ChooseParams(-4, 4), ActReLU)
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink = r.Requantize(int32(i))
	}
	_ = sink
}

// stepGrids are the output grids the step tables are checked on: zero
// points at both ends and in the middle, scales from coarse to tiny (a
// tiny scale puts the codes within a few float32 ULPs of each other near
// 0, and makes ReLU6 cap the codes below 255).
func stepGrids() []Params {
	var grids []Params
	for _, zp := range []uint8{0, 117, 255} {
		for _, scale := range []float32{4, 0.0235, 1.0 / 255, 3e-5, 1e-38} {
			grids = append(grids, Params{Scale: scale, ZeroPoint: zp})
		}
	}
	return grids
}

func TestStepTableMatchesQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, p := range stepGrids() {
		for _, act := range []Activation{ActNone, ActReLU, ActReLU6} {
			st := NewStepTable(p, func(x float32) uint8 { return p.Quantize(act.Apply(x)) })
			check := func(x float32) {
				if got, want := st.Quantize(x), p.Quantize(act.Apply(x)); got != want {
					t.Fatalf("%v %v x=%g (%#08x): step table %d, chain %d", p, act, x, math.Float32bits(x), got, want)
				}
			}
			// Each step point, its float32 neighbours, and the values the
			// table's estimate rounds at.
			for q := st.lo + 1; q <= st.hi; q++ {
				s := st.steps[q]
				check(s)
				check(math.Nextafter32(s, float32(math.Inf(-1))))
				check(math.Nextafter32(s, float32(math.Inf(1))))
				check(float32((float64(q-int64(p.ZeroPoint)) - 0.5) * float64(p.Scale)))
			}
			for _, x := range []float32{0, float32(math.Copysign(0, -1)), 6, -6, 1e-45, -1e-45,
				float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32} {
				check(x)
			}
			for i := 0; i < 20000; i++ {
				x := math.Float32frombits(rng.Uint32())
				if x != x {
					continue
				}
				check(x)
				check(float32(rng.NormFloat64()) * 256 * p.Scale)
			}
		}
	}
}
