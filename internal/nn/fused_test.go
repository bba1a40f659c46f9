package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mulayer/internal/f16"
	"mulayer/internal/gemm"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// dequantizedHalves is the GPU half's weight set computed from scratch:
// every QUInt8 weight dequantized on its grid and rounded to binary16.
func dequantizedHalves(l *Conv2D) []f16.F16 {
	rows := len(l.wq.Data) / l.OutC
	w := make([]f16.F16, len(l.wq.Data))
	for i, q := range l.wq.Data {
		wp := l.QI.W
		if l.QI.PerChannel() {
			wp = l.QI.WPerChannel[i/rows]
		}
		w[i] = f16.FromFloat32(wp.Dequantize(q))
	}
	return w
}

// directChain convolves channels [c0,c1) of a grouped layer with straight
// loops over widened weights and inputs, storing each float32 sum through
// round: the grouped half of the unfused chains below.
func directChain[T any](l *Conv2D, inS, outS tensor.Shape, in, w, out []T, c0, c1 int, widen func(T) float32, round func(float32) T) {
	icg, ocg := l.InC/l.groups(), l.OutC/l.groups()
	for n := 0; n < inS.N; n++ {
		for oc := c0; oc < c1; oc++ {
			for y := 0; y < outS.H; y++ {
				for x := 0; x < outS.W; x++ {
					var s float32
					for ic := 0; ic < icg; ic++ {
						for kh := 0; kh < l.KH; kh++ {
							for kw := 0; kw < l.KW; kw++ {
								sy, sx := y*l.StrideH-l.PadH+kh, x*l.StrideW-l.PadW+kw
								if sy < 0 || sy >= inS.H || sx < 0 || sx >= inS.W {
									continue
								}
								s += widen(w[((oc*icg+ic)*l.KH+kh)*l.KW+kw]) * widen(in[inS.Index(n, oc/ocg*icg+ic, sy, sx)])
							}
						}
					}
					out[outS.Index(n, oc, y, x)] = round(s)
				}
			}
		}
	}
}

// forwardQViaF16Chain is the GPU-half pipeline as a chain of whole-tensor
// passes: dequantize the input to binary16, lower it with Im2ColF16 (or
// convolve it directly when grouped), multiply with F16Ref into a
// binary16 tensor, then add the half bias, activate and quantize element
// by element. ForwardQViaF16 fuses all of it into the kernel's pack and
// strip writeback and must agree bit for bit.
func forwardQViaF16Chain(l *Conv2D, in *tensor.QTensor, out *tensor.QTensor, c0, c1 int) {
	hin := tensor.NewH(in.Shape)
	for i, v := range in.Data {
		hin.Data[i] = f16.FromFloat32(in.Params.Dequantize(v))
	}
	hout := tensor.NewH(out.Shape)
	w := dequantizedHalves(l)
	g := l.geom(in.Shape)
	plane := g.PatchCols()
	if l.groups() == 1 {
		k := g.PatchRows()
		patches := make([]f16.F16, k*plane)
		for n := 0; n < in.Shape.N; n++ {
			gemm.Im2ColF16(batchElem(hin.Data, in.Shape, n), g, patches)
			lo, _ := out.Shape.ChannelSpan(n, c0, c1)
			gemm.F16Ref(w[c0*k:c1*k], patches, hout.Data[lo:lo+(c1-c0)*plane], c1-c0, k, plane)
		}
	} else {
		directChain(l, in.Shape, out.Shape, hin.Data, w, hout.Data, c0, c1, f16.F16.Float32, f16.FromFloat32)
	}
	for n := 0; n < out.Shape.N; n++ {
		for oc := c0; oc < c1; oc++ {
			ws := float64(l.QI.W.Scale)
			if l.QI.PerChannel() {
				ws = float64(l.QI.WPerChannel[oc].Scale)
			}
			b := f16.FromFloat32(float32(float64(l.biasQ[oc]) * float64(in.Params.Scale) * ws))
			lo, hi := out.Shape.ChannelSpan(n, oc, oc+1)
			for i := lo; i < hi; i++ {
				v := f16.Add(hout.Data[i], b)
				out.Data[i] = out.Params.Quantize(l.Act.Apply(v.Float32()))
			}
		}
	}
}

// fusedCases are the layer shapes the fused pipelines are pinned on:
// padded 3×3, strided and padded 7×7, an unpadded 1×1, and a depthwise
// layer (the grouped direct path), each per-tensor and per-channel.
func fusedCases(t *testing.T) map[string]*Conv2D {
	t.Helper()
	cases := map[string]*Conv2D{}
	for _, perCh := range []bool{false, true} {
		for name, c := range map[string]struct{ inC, outC, k, stride, pad, groups int }{
			"3x3pad": {5, 9, 3, 1, 1, 1},
			"7x7s2":  {3, 6, 7, 2, 3, 1},
			"1x1":    {7, 5, 1, 1, 0, 1},
			"dw3x3":  {6, 6, 3, 2, 1, 6},
		} {
			l, _ := newTestConv(t, c.inC, c.outC, c.k, c.stride, c.pad, c.groups, quant.ActReLU)
			if perCh {
				l.PerChannelW = true
				l.SetQuant(l.QI.In, l.QI.Out)
				name += "/perchannel"
			}
			cases[name] = l
		}
	}
	return cases
}

func quantInput(l *Conv2D, n int, seed uint64) *tensor.QTensor {
	in := tensor.New(tensor.Shape{N: n, C: l.InC, H: 9, W: 9})
	in.FillRandom(seed, 1)
	return tensor.Quantize(in, l.QI.In)
}

func TestForwardQViaF16MatchesUnfusedChain(t *testing.T) {
	for name, l := range fusedCases(t) {
		t.Run(name, func(t *testing.T) {
			in := quantInput(l, 2, 77)
			outShape, err := l.OutShape([]tensor.Shape{in.Shape})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range [][2]int{{0, l.OutC}, {1, l.OutC - 1}} {
				got, want := tensor.NewQ(outShape, l.QI.Out), tensor.NewQ(outShape, l.QI.Out)
				l.ForwardQViaF16([]*tensor.QTensor{in}, got, r[0], r[1])
				forwardQViaF16Chain(l, in, want, r[0], r[1])
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("channels %v elem %d: fused %d, chain %d", r, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// The two halves of a split layer may run at once; their first forwards
// race to build the layer's shared output stage, and both must still
// match the chain.
func TestForwardQViaF16ConcurrentHalves(t *testing.T) {
	for name, l := range fusedCases(t) {
		in := quantInput(l, 1, 78)
		outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
		got, want := tensor.NewQ(outShape, l.QI.Out), tensor.NewQ(outShape, l.QI.Out)
		var wg sync.WaitGroup
		for _, r := range [][2]int{{0, l.OutC / 2}, {l.OutC / 2, l.OutC}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.ForwardQViaF16([]*tensor.QTensor{in}, got, r[0], r[1])
			}()
		}
		wg.Wait()
		forwardQViaF16Chain(l, in, want, 0, l.OutC)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s elem %d: concurrent halves %d, chain %d", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// patchMatrix lowers one batch element to its K×N patch matrix tap by
// tap, +0 for padding: the F32 chain's im2col.
func patchMatrix[T any](in []T, g gemm.ConvGeom) []T {
	oh, ow := g.OutH(), g.OutW()
	p := make([]T, g.PatchRows()*oh*ow)
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := p[((c*g.KH+kh)*g.KW+kw)*oh*ow:]
				for y := 0; y < oh; y++ {
					for x := 0; x < ow; x++ {
						sy, sx := y*g.StrideH-g.PadH+kh, x*g.StrideW-g.PadW+kw
						if sy >= 0 && sy < g.InH && sx >= 0 && sx < g.InW {
							row[y*ow+x] = in[(c*g.InH+sy)*g.InW+sx]
						}
					}
				}
			}
		}
	}
	return p
}

// forwardFloatChain is the pure-float pipeline as a chain of whole-tensor
// passes: lower with im2col and multiply with ref (or convolve directly
// when grouped) into the output tensor, rounding each sum, then add the
// bias and activate element by element in a second pass. ForwardF32 and
// ForwardF16 run the bias and activation in the kernel's strip epilogue
// and must agree bit for bit.
func forwardFloatChain[T any](l *Conv2D, inS, outS tensor.Shape, in, w, out []T, c0, c1 int,
	ref func(a, b, c []T, m, k, n int), widen func(T) float32, round func(float32) T) {
	if l.groups() == 1 {
		g := l.geom(inS)
		k, plane := g.PatchRows(), g.PatchCols()
		for n := 0; n < inS.N; n++ {
			lo, _ := outS.ChannelSpan(n, c0, c1)
			ref(w[c0*k:c1*k], patchMatrix(batchElem(in, inS, n), g), out[lo:lo+(c1-c0)*plane], c1-c0, k, plane)
		}
	} else {
		directChain(l, inS, outS, in, w, out, c0, c1, widen, round)
	}
	for n := 0; n < outS.N; n++ {
		for oc := c0; oc < c1; oc++ {
			lo, hi := outS.ChannelSpan(n, oc, oc+1)
			for i := lo; i < hi; i++ {
				out[i] = round(l.Act.Apply(widen(out[i]) + l.Bias[oc]))
			}
		}
	}
}

func TestForwardFloatMatchesUnfusedChain(t *testing.T) {
	same := func(v float32) float32 { return v }
	for name, l := range fusedCases(t) {
		t.Run(name, func(t *testing.T) {
			in := tensor.New(tensor.Shape{N: 2, C: l.InC, H: 9, W: 9})
			in.FillRandom(81, 1)
			hin := tensor.ToHalf(in)
			outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
			for _, r := range [][2]int{{0, l.OutC}, {1, l.OutC - 1}} {
				got, want := tensor.New(outShape), tensor.New(outShape)
				l.ForwardF32([]*tensor.Tensor{in}, got, r[0], r[1])
				forwardFloatChain(l, in.Shape, outShape, in.Data, l.W.Data, want.Data, r[0], r[1], gemm.F32Ref, same, same)
				hgot, hwant := tensor.NewH(outShape), tensor.NewH(outShape)
				l.ForwardF16([]*tensor.HTensor{hin}, hgot, r[0], r[1])
				forwardFloatChain(l, in.Shape, outShape, hin.Data, f16.FromSlice32(l.W.Data), hwant.Data, r[0], r[1], gemm.F16Ref, f16.F16.Float32, f16.FromFloat32)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) || hgot.Data[i] != hwant.Data[i] {
						t.Fatalf("channels %v elem %d: fused %v/%#04x, chain %v/%#04x", r, i, got.Data[i], hgot.Data[i], want.Data[i], hwant.Data[i])
					}
				}
			}
		})
	}
}

// The CPU half's fused pack + strip requantize must equal Im2ColU8 +
// QGEMMRef + per-element requantize.
func TestForwardQMatchesUnfusedChain(t *testing.T) {
	for name, l := range fusedCases(t) {
		if l.groups() != 1 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			in := quantInput(l, 2, 78)
			outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
			got := tensor.NewQ(outShape, l.QI.Out)
			l.ForwardQ([]*tensor.QTensor{in}, got, 0, l.OutC)
			g := l.geom(in.Shape)
			k, plane := g.PatchRows(), g.PatchCols()
			req := quant.NewRequantizer(in.Params, l.QI.W, l.QI.Out, l.Act)
			patches := make([]uint8, k*plane)
			acc := make([]int32, l.OutC*plane)
			for n := 0; n < in.Shape.N; n++ {
				gemm.Im2ColU8(batchElem(in.Data, in.Shape, n), g, patches, in.Params.ZeroPoint)
				gemm.QGEMMRef(l.wq.Data, patches, acc, l.OutC, k, plane, int32(l.QI.W.ZeroPoint), int32(in.Params.ZeroPoint))
				for i, a := range acc {
					oc := i / plane
					want := l.requantizerFor(oc, &req).Requantize(a + l.biasQ[oc])
					if g := got.Data[n*l.OutC*plane+i]; g != want {
						t.Fatalf("batch %d elem %d: fused %d, chain %d", n, i, g, want)
					}
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go under the race detector, which makes
// sync.Pool drop pooled objects at random.
var raceEnabled bool

// Warm forwards draw their kernel scratch from the gemm pool, and the
// kernel runs the epilogue and column-fill closures on the calling
// goroutine, so they stay on the stack: a warm dense conv forward in any
// pipeline, and a warm quantized pool, allocates nothing. A regression
// to per-call patch, operand or accumulator buffers, or a closure that
// escapes to the heap, shows up here first.
func TestConvForwardAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	l, _ := newTestConv(t, 16, 32, 3, 1, 1, 1, quant.ActReLU)
	in := quantInput(l, 1, 79)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.NewQ(outShape, l.QI.Out)
	ins := []*tensor.QTensor{in}
	fin := tensor.New(in.Shape)
	fin.FillRandom(79, 1)
	fins, fout := []*tensor.Tensor{fin}, tensor.New(outShape)
	hins, hout := []*tensor.HTensor{tensor.ToHalf(fin)}, tensor.NewH(outShape)
	pool := func(pl *Pool) func() {
		pin := tensor.New(tensor.Shape{N: 1, C: 24, H: 28, W: 28})
		pin.FillRandom(3, 1)
		p := quant.ChooseParams(-1, 1)
		pins := []*tensor.QTensor{tensor.Quantize(pin, p)}
		pout, _ := pl.OutShape([]tensor.Shape{pin.Shape})
		po := tensor.NewQ(pout, p)
		return func() { pl.ForwardQ(pins, po, 0, pin.Shape.C) }
	}
	for name, c := range map[string]struct {
		fwd   func()
		limit float64
	}{
		"ForwardF32":             {func() { l.ForwardF32(fins, fout, 0, l.OutC) }, 0},
		"ForwardF16":             {func() { l.ForwardF16(hins, hout, 0, l.OutC) }, 0},
		"ForwardQ":               {func() { l.ForwardQ(ins, out, 0, l.OutC) }, 0},
		"ForwardQViaF16":         {func() { l.ForwardQViaF16(ins, out, 0, l.OutC) }, 0},
		"Pool.ForwardQ/max3x3s2": {pool(&Pool{Max: true, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}), 0},
		"Pool.ForwardQ/max3x3s1": {pool(&Pool{Max: true, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}), 0},
		"Pool.ForwardQ/avg3x3s1": {pool(&Pool{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}), 0},
	} {
		c.fwd() // fill the packed-weight cache and the scratch pools
		if a := testing.AllocsPerRun(20, c.fwd); a > c.limit {
			t.Errorf("%s: %.1f allocations per warm call, want ≤ %.0f", name, a, c.limit)
		}
	}
}

// poolTaps lists the valid taps of output (oy,ox) as flat input indices
// in row-major window order, with the average's divisor: the per-tap
// bounds-checked walk that the clamped row-slice walk replaced.
func poolTaps(l *Pool, in tensor.Shape, n, c, oy, ox int) (taps []int, denom int) {
	kh, kw, sh, sw := l.window(in)
	for y := 0; y < kh; y++ {
		for x := 0; x < kw; x++ {
			sy, sx := oy*sh-l.PadH+y, ox*sw-l.PadW+x
			if sy >= 0 && sy < in.H && sx >= 0 && sx < in.W {
				taps = append(taps, in.Index(n, c, sy, sx))
			}
		}
	}
	if l.CountIncludePad {
		return taps, kh * kw
	}
	return taps, len(taps)
}

func TestPoolMatchesPerTapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for it := 0; it < 200; it++ {
		k := 1 + rng.Intn(4)
		l := &Pool{
			LayerName: "p", Max: rng.Intn(2) == 0, KH: k, KW: 1 + rng.Intn(4),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(k), PadW: rng.Intn(2), CountIncludePad: rng.Intn(2) == 0,
			Global: rng.Intn(10) == 0,
		}
		if l.PadW >= l.KW || l.Global {
			l.PadW = 0
		}
		if l.Global {
			l.PadH = 0
		}
		in := tensor.New(tensor.Shape{N: 1 + rng.Intn(2), C: 1 + rng.Intn(3), H: 1 + rng.Intn(9), W: 1 + rng.Intn(9)})
		checkPoolWalk(t, it, l, in, 0, in.Shape.C)
	}
	// Planes up to 32×32 and up to 20 channels, pooled over a random
	// channel sub-range: the max path's word-at-a-time folds and their
	// byte tails, and same-shaped windows over several planes at once.
	for it := 200; it < 400; it++ {
		k := 1 + rng.Intn(5)
		l := &Pool{LayerName: "p", Max: rng.Intn(4) != 0, KH: k, KW: 1 + rng.Intn(5), StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 { // a same-shaped window, as Inception's branch pool
			l.KW, l.StrideH, l.StrideW = l.KH, 1, 1
		}
		l.PadH, l.PadW = rng.Intn(l.KH/2+1), rng.Intn(l.KW/2+1)
		if rng.Intn(4) == 0 {
			l.PadH, l.PadW = rng.Intn(l.KH), rng.Intn(l.KW)
		}
		in := tensor.New(tensor.Shape{N: 1 + rng.Intn(2), C: 1 + rng.Intn(20), H: 1 + rng.Intn(32), W: 1 + rng.Intn(32)})
		c0 := rng.Intn(in.Shape.C)
		checkPoolWalk(t, it, l, in, c0, c0+1+rng.Intn(in.Shape.C-c0))
	}
}

// checkPoolWalk pools channels [c0,c1) of a random input in all three
// pipelines and compares every output with the per-tap walk; channels
// outside the range must stay untouched.
func checkPoolWalk(t *testing.T, it int, l *Pool, in *tensor.Tensor, c0, c1 int) {
	t.Helper()
	in.FillRandom(uint64(it), 1)
	outShape, err := l.OutShape([]tensor.Shape{in.Shape})
	if err != nil {
		return
	}
	p := quant.ChooseParams(-1, 1)
	qin, hin := tensor.Quantize(in, p), tensor.ToHalf(in)
	fout, qout, hout := tensor.New(outShape), tensor.NewQ(outShape, p), tensor.NewH(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, fout, c0, c1)
	l.ForwardQ([]*tensor.QTensor{qin}, qout, c0, c1)
	l.ForwardF16([]*tensor.HTensor{hin}, hout, c0, c1)
	for n := 0; n < outShape.N; n++ {
		for c := 0; c < outShape.C; c++ {
			for oy := 0; oy < outShape.H; oy++ {
				for ox := 0; ox < outShape.W; ox++ {
					var wantF float32
					var wantH f16.F16
					var wantQ uint8
					if c >= c0 && c < c1 {
						wantF, wantH, wantQ = poolWant(l, in, hin, qin, p, n, c, oy, ox)
					}
					i := outShape.Index(n, c, oy, ox)
					if fout.Data[i] != wantF || hout.Data[i] != wantH || qout.Data[i] != wantQ {
						t.Fatalf("case %d max %v k%dx%d s%dx%d p%dx%d global %v in %v channels [%d,%d) out %d: f32 %v/%v f16 %v/%v q %d/%d",
							it, l.Max, l.KH, l.KW, l.StrideH, l.StrideW, l.PadH, l.PadW, l.Global, in.Shape, c0, c1, i,
							fout.Data[i], wantF, hout.Data[i], wantH, qout.Data[i], wantQ)
					}
				}
			}
		}
	}
}

// poolWant is output (n, c, oy, ox) of each pipeline by the per-tap walk.
func poolWant(l *Pool, in *tensor.Tensor, hin *tensor.HTensor, qin *tensor.QTensor, p quant.Params, n, c, oy, ox int) (float32, f16.F16, uint8) {
	taps, d := poolTaps(l, in.Shape, n, c, oy, ox)
	mf, mh := float32(math.Inf(-1)), float32(math.Inf(-1))
	var sf, sh float32
	var mq uint8
	var sq int32
	for _, i := range taps {
		v, h, q := in.Data[i], hin.Data[i].Float32(), qin.Data[i]
		if v > mf {
			mf = v
		}
		if h > mh {
			mh = h
		}
		mq = max(mq, q)
		sf, sh, sq = sf+v, sh+h, sq+int32(q)
	}
	if l.Max {
		return mf, f16.FromFloat32(mh), mq
	}
	sq += int32(d-len(taps)) * int32(p.ZeroPoint)
	return sf / float32(d), f16.FromFloat32(sh / float32(d)), uint8((sq + int32(d)/2) / int32(d))
}

// maxBytes must be the lanewise max for every pair of bytes in every lane,
// whatever the other lanes hold.
func TestMaxBytesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			lane := uint(a+b) % 8 * 8
			x, y := rng.Uint64(), rng.Uint64()
			x = x&^(0xff<<lane) | uint64(a)<<lane
			y = y&^(0xff<<lane) | uint64(b)<<lane
			m := maxBytes(x, y)
			for l := uint(0); l < 64; l += 8 {
				if got, want := uint8(m>>l), max(uint8(x>>l), uint8(y>>l)); got != want {
					t.Fatalf("maxBytes(%#x, %#x) lane %d = %d, want %d", x, y, l/8, got, want)
				}
			}
		}
	}
}

// BenchmarkPoolForwardQ times the quantized max pool on GoogLeNet's two
// pool shapes: the strided stage pool and the Inception branch pool.
func BenchmarkPoolForwardQ(b *testing.B) {
	for _, c := range []struct {
		name          string
		k, stride, pd int
		in            tensor.Shape
	}{
		{"3x3s2/56x56x32", 3, 2, 1, tensor.Shape{N: 1, C: 32, H: 56, W: 56}},
		{"3x3s1/7x7x256", 3, 1, 1, tensor.Shape{N: 1, C: 256, H: 7, W: 7}},
		{"3x3s1/14x14x128", 3, 1, 1, tensor.Shape{N: 1, C: 128, H: 14, W: 14}},
		{"3x3s1/4x4x416", 3, 1, 1, tensor.Shape{N: 1, C: 416, H: 4, W: 4}},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := &Pool{LayerName: "p", Max: true, KH: c.k, KW: c.k, StrideH: c.stride, StrideW: c.stride, PadH: c.pd, PadW: c.pd}
			in := tensor.New(c.in)
			in.FillRandom(3, 1)
			p := quant.ChooseParams(-1, 1)
			qin := tensor.Quantize(in, p)
			outShape, _ := l.OutShape([]tensor.Shape{c.in})
			out := tensor.NewQ(outShape, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.ForwardQ([]*tensor.QTensor{qin}, out, 0, c.in.C)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*outShape.Elems()), "ns/output")
		})
	}
}

// BenchmarkHalfStage times the GPU half's output stage on a 784-wide
// strip (one output channel of a 28×28 plane) of sums of a realistic
// spread (about half of them negative, so ReLU clamps half).
func BenchmarkHalfStage(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	acc := make([]float32, 784)
	for i := range acc {
		acc[i] = float32(rng.NormFloat64() * 2)
	}
	dst := make([]uint8, len(acc))
	st := newHalfStage(stageKey{quant.ChooseParams(0, 6), quant.ActReLU})
	bias := f16.FromFloat32(0.1)
	b.SetBytes(int64(len(acc)))
	for i := 0; i < b.N; i++ {
		st.quantize(dst, acc, bias)
	}
}

// halfChain is the GPU half's output stage written as the f16 chain it
// replaced — round the sum to half, add the half bias with f16.Add,
// widen, activate, quantize — kept as the oracle for halfStage.quantize.
func halfChain(p quant.Params, act quant.Activation, s float32, b f16.F16) uint8 {
	return p.Quantize(act.Apply(f16.Add(f16.FromFloat32(s), b).Float32()))
}

// stageGrids are output grids with the zero point at the bottom, inside
// and at the top of the codes.
var stageGrids = []quant.Params{
	{Scale: 6.0 / 255, ZeroPoint: 0},
	{Scale: 0.05, ZeroPoint: 117},
	{Scale: 0.02, ZeroPoint: 255},
}

// stageBiases are 32 half biases: zeros, the extremes, a subnormal, an
// infinity and a NaN, and random values.
func stageBiases() []f16.F16 {
	bs := []f16.F16{f16.Zero, f16.NegZero, f16.One, f16.One.Neg(), f16.MaxValue, f16.MaxValue.Neg(),
		f16.MinPositive, f16.MinNormal.Neg(), f16.Inf, f16.NaN}
	rng := rand.New(rand.NewSource(7))
	for len(bs) < 32 {
		bs = append(bs, f16.FromFloat32(float32(rng.NormFloat64()*4)))
	}
	return bs
}

// The fused output stage must give the chain's code for every binary16
// sum under every bias, grid and activation, and for float32 sums that
// round to subnormal halves, overflow, or are ±0, ±Inf or NaN.
func TestOutputStageExhaustive(t *testing.T) {
	sums := make([]float32, 0, 1<<16+64)
	for h := 0; h <= 0xffff; h++ {
		sums = append(sums, f16.FromBits(uint16(h)).Float32())
	}
	rng := rand.New(rand.NewSource(9))
	for _, s := range []float32{0, float32(math.Copysign(0, -1)), 1e-45, 3e-8, 6e-5, 0x1p-14, 65504, 65519.99, 65520, 7e4, 1e30,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		sums = append(sums, s, -s)
	}
	for i := 0; i < 32; i++ {
		sums = append(sums, math.Float32frombits(rng.Uint32()))
	}
	got := make([]uint8, len(sums))
	for _, p := range stageGrids {
		for _, act := range []quant.Activation{quant.ActNone, quant.ActReLU, quant.ActReLU6} {
			st := newHalfStage(stageKey{p, act})
			for _, b := range stageBiases() {
				st.quantize(got, sums, b)
				for i, s := range sums {
					if want := halfChain(p, act, s, b); got[i] != want {
						t.Fatalf("%v %v bias %#04x sum %g (%#08x): %d, chain %d", p, act, b, s, math.Float32bits(s), got[i], want)
					}
				}
			}
		}
	}
}

func FuzzOutputStage(f *testing.F) {
	f.Add(uint32(0x3f800000), uint16(0x3c00), float32(0.05), uint8(117), uint8(1))
	f.Add(uint32(0x477ff000), uint16(0x0001), float32(6.0/255), uint8(0), uint8(2))
	f.Add(uint32(0x80000000), uint16(0x8000), float32(0.02), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, bits uint32, bias uint16, scale float32, zp, act uint8) {
		if !(scale > 0) || math.IsInf(float64(scale), 0) {
			return
		}
		p, a := quant.Params{Scale: scale, ZeroPoint: zp}, quant.Activation(act%3)
		s, b := math.Float32frombits(bits), f16.FromBits(bias)
		var got [1]uint8
		newHalfStage(stageKey{p, a}).quantize(got[:], []float32{s}, b)
		if want := halfChain(p, a, s, b); got[0] != want {
			t.Fatalf("%v %v bias %#04x sum %g: %d, chain %d", p, a, bias, s, got[0], want)
		}
	})
}
