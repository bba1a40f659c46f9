package nn

import (
	"math"
	"testing"

	"mulayer/internal/f16"
	"mulayer/internal/gemm"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

func TestFCSplitMergeAllPipelines(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 2, C: 3, H: 2, W: 2})
	in.FillRandom(5, 1)
	w := tensor.New(tensor.Shape{N: 10, C: 12, H: 1, W: 1})
	w.FillRandom(6, 0.4)
	bias := make([]float32, 10)
	for i := range bias {
		bias[i] = float32(i) * 0.05
	}
	l := &FullyConnected{LayerName: "fc", InFeatures: 12, OutC: 10, W: w, Bias: bias, Act: quant.ActReLU}
	outShape, err := l.OutShape([]tensor.Shape{in.Shape})
	if err != nil {
		t.Fatal(err)
	}
	if outShape != (tensor.Shape{N: 2, C: 10, H: 1, W: 1}) {
		t.Fatalf("out shape %v", outShape)
	}
	ref := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, ref, 0, 10)
	inMin, inMax := in.Range()
	oMin, oMax := ref.Range()
	l.SetQuant(quant.ChooseParams(inMin, inMax), quant.ChooseParams(oMin, oMax))

	// F32 split-merge.
	a, b := tensor.New(outShape), tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, a, 0, 4)
	l.ForwardF32([]*tensor.Tensor{in}, b, 4, 10)
	m := tensor.New(outShape)
	m.CopyChannels(a, 0, 4)
	m.CopyChannels(b, 4, 10)
	if m.MaxAbsDiff(ref) != 0 {
		t.Fatal("F32 FC split-merge differs")
	}

	// Quantized split-merge, bit-exact.
	qin := tensor.Quantize(in, l.QI.In)
	qfull := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, qfull, 0, 10)
	qa, qb := tensor.NewQ(outShape, l.QI.Out), tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, qa, 0, 7)
	l.ForwardQ([]*tensor.QTensor{qin}, qb, 7, 10)
	qm := tensor.NewQ(outShape, l.QI.Out)
	qm.CopyChannels(qa, 0, 7)
	qm.CopyChannels(qb, 7, 10)
	for i := range qm.Data {
		if qm.Data[i] != qfull.Data[i] {
			t.Fatal("Q FC split-merge differs")
		}
	}

	// Quantized result near F32.
	deq := tensor.Dequantize(qfull)
	if d := deq.MaxAbsDiff(ref); d > float64(l.QI.Out.Scale)*6 {
		t.Fatalf("FC quantized error %v", d)
	}

	// GPU path near CPU path.
	qg := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQViaF16([]*tensor.QTensor{qin}, qg, 0, 10)
	for i := range qg.Data {
		d := int(qg.Data[i]) - int(qfull.Data[i])
		if d < -2 || d > 2 {
			t.Fatalf("FC QViaF16 vs Q differ by %d at %d", d, i)
		}
	}

	// F16 path near F32.
	hin := tensor.ToHalf(in)
	hout := tensor.NewH(outShape)
	l.ForwardF16([]*tensor.HTensor{hin}, hout, 0, 10)
	if d := tensor.HalfToFloat(hout).MaxAbsDiff(ref); d > 0.02 {
		t.Fatalf("FC F16 error %v", d)
	}
}

// FullyConnected runs as a 1×1 convolution over its input viewed as
// (N, InFeatures, 1, 1); on a spatial (N, C, H>1, W>1) input every
// pipeline must still equal the plain matrix oracles on the flattened
// feature vector, bit for bit, for whole and split neuron ranges.
func TestFCMatchesMatrixOracles(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 2, C: 3, H: 4, W: 5})
	in.FillRandom(93, 1)
	const k, outC = 3 * 4 * 5, 7
	w := tensor.New(tensor.Shape{N: outC, C: k, H: 1, W: 1})
	w.FillRandom(94, 0.3)
	bias := make([]float32, outC)
	for i := range bias {
		bias[i] = float32(i%3)*0.2 - 0.2
	}
	l := &FullyConnected{LayerName: "fc", InFeatures: k, OutC: outC, W: w, Bias: bias, Act: quant.ActReLU}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	ref := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, ref, 0, outC)
	oMin, oMax := ref.Range()
	l.SetQuant(quant.ChooseParams(in.Range()), quant.ChooseParams(oMin, oMax))
	qi := l.QI
	qin, hin := tensor.Quantize(in, qi.In), tensor.ToHalf(in)

	// The oracles, per batch element n and neuron oc.
	wq := tensor.Quantize(w, qi.W)
	wh, whq := f16.FromSlice32(w.Data), make([]f16.F16, len(wq.Data))
	for i, q := range wq.Data {
		whq[i] = f16.FromFloat32(qi.W.Dequantize(q))
	}
	req := quant.NewRequantizer(qi.In, qi.W, qi.Out, l.Act)
	wantF, wantH := tensor.New(outShape), tensor.NewH(outShape)
	wantQ, wantG := tensor.NewQ(outShape, qi.Out), tensor.NewQ(outShape, qi.Out)
	for n := 0; n < in.Shape.N; n++ {
		vec := func(i int) int { return n*k + i }
		f, h := make([]float32, outC), make([]f16.F16, outC)
		gemm.F32Ref(w.Data, in.Data[vec(0):vec(k)], f, outC, k, 1)
		gemm.F16Ref(wh, hin.Data[vec(0):vec(k)], h, outC, k, 1)
		acc := make([]int32, outC)
		gemm.QGEMMRef(wq.Data, qin.Data[vec(0):vec(k)], acc, outC, k, 1, int32(qi.W.ZeroPoint), int32(qi.In.ZeroPoint))
		deq := make([]f16.F16, k)
		for i, q := range qin.Data[vec(0):vec(k)] {
			deq[i] = f16.FromFloat32(qi.In.Dequantize(q))
		}
		g := make([]f16.F16, outC)
		gemm.F16Ref(whq, deq, g, outC, k, 1)
		for oc := 0; oc < outC; oc++ {
			bq := int32(math.Round(float64(bias[oc]) / (float64(qi.In.Scale) * float64(qi.W.Scale))))
			bh := f16.FromFloat32(float32(float64(bq) * float64(qi.In.Scale) * float64(qi.W.Scale)))
			i := n*outC + oc
			wantF.Data[i] = l.Act.Apply(f[oc] + bias[oc])
			wantH.Data[i] = f16.FromFloat32(l.Act.Apply(h[oc].Float32() + bias[oc]))
			wantQ.Data[i] = req.Requantize(acc[oc] + bq)
			wantG.Data[i] = qi.Out.Quantize(l.Act.Apply(f16.Add(g[oc], bh).Float32()))
		}
	}

	for _, r := range [][2]int{{0, outC}, {0, 3}, {3, outC}} {
		gotF, gotH := tensor.New(outShape), tensor.NewH(outShape)
		gotQ, gotG := tensor.NewQ(outShape, qi.Out), tensor.NewQ(outShape, qi.Out)
		l.ForwardF32([]*tensor.Tensor{in}, gotF, r[0], r[1])
		l.ForwardF16([]*tensor.HTensor{hin}, gotH, r[0], r[1])
		l.ForwardQ([]*tensor.QTensor{qin}, gotQ, r[0], r[1])
		l.ForwardQViaF16([]*tensor.QTensor{qin}, gotG, r[0], r[1])
		for n := 0; n < in.Shape.N; n++ {
			for oc := r[0]; oc < r[1]; oc++ {
				i := n*outC + oc
				if math.Float32bits(gotF.Data[i]) != math.Float32bits(wantF.Data[i]) || gotH.Data[i] != wantH.Data[i] ||
					gotQ.Data[i] != wantQ.Data[i] || gotG.Data[i] != wantG.Data[i] {
					t.Fatalf("neurons %v out %d: f32 %v/%v f16 %#04x/%#04x q %d/%d q-via-f16 %d/%d", r, i,
						gotF.Data[i], wantF.Data[i], gotH.Data[i], wantH.Data[i], gotQ.Data[i], wantQ.Data[i], gotG.Data[i], wantG.Data[i])
				}
			}
		}
	}
}

// Replacing an FC layer's weights or bias after it has run must not leave
// its convolution computing with the old ones: every pipeline then
// matches a fresh layer built on the new weights with the same grids.
func TestFCFollowsReplacedWeights(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 4, H: 2, W: 2})
	in.FillRandom(95, 1)
	build := func(seed uint64) (*tensor.Tensor, []float32) {
		w := tensor.New(tensor.Shape{N: 5, C: 16, H: 1, W: 1})
		w.FillRandom(seed, 0.4)
		return w, []float32{0.1, -0.2, 0.3, 0, 0.05}
	}
	inP, outP := quant.ChooseParams(-1, 1), quant.ChooseParams(-2, 2)
	w1, b1 := build(96)
	l := &FullyConnected{LayerName: "fc", InFeatures: 16, OutC: 5, W: w1, Bias: b1}
	l.SetQuant(inP, outP)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	qin := tensor.Quantize(in, inP)
	l.ForwardQ([]*tensor.QTensor{qin}, tensor.NewQ(outShape, outP), 0, 5)

	w2, b2 := build(97)
	for name, swap := range map[string]func(){
		"weights and bias": func() { l.W, l.Bias = w2, b2 },
		"bias alone":       func() { l.Bias = []float32{-0.3, 0.2, 0, 0.1, 0.4} },
	} {
		swap()
		fresh := &FullyConnected{LayerName: "fc", InFeatures: 16, OutC: 5, W: l.W, Bias: l.Bias}
		fresh.SetQuant(inP, outP)
		got, want := tensor.New(outShape), tensor.New(outShape)
		l.ForwardF32([]*tensor.Tensor{in}, got, 0, 5)
		fresh.ForwardF32([]*tensor.Tensor{in}, want, 0, 5)
		qgot, qwant := tensor.NewQ(outShape, outP), tensor.NewQ(outShape, outP)
		l.ForwardQ([]*tensor.QTensor{qin}, qgot, 0, 5)
		fresh.ForwardQ([]*tensor.QTensor{qin}, qwant, 0, 5)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] || qgot.Data[i] != qwant.Data[i] {
				t.Fatalf("%s: out %d: %v/%d, fresh layer %v/%d", name, i, got.Data[i], qgot.Data[i], want.Data[i], qwant.Data[i])
			}
		}
		if l.QI.W != fresh.QI.W {
			t.Fatalf("%s: weight grid %+v, fresh layer %+v", name, l.QI.W, fresh.QI.W)
		}
	}
}

func TestFCShapeError(t *testing.T) {
	l := &FullyConnected{LayerName: "fc", InFeatures: 10, OutC: 4}
	if _, err := l.OutShape([]tensor.Shape{{N: 1, C: 3, H: 2, W: 2}}); err == nil {
		t.Error("feature mismatch must error")
	}
}

func TestMaxPoolF32(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 1, H: 4, W: 4}, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	l := &Pool{LayerName: "mp", Max: true, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	outShape, err := l.OutShape([]tensor.Shape{in.Shape})
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, 1)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("maxpool[%d] = %v want %v", i, out.Data[i], w)
		}
	}
}

func TestAvgPoolExcludePad(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 1, H: 2, W: 2}, []float32{2, 4, 6, 8})
	l := &Pool{LayerName: "ap", KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	if outShape.H != 3 || outShape.W != 3 {
		t.Fatalf("out %v", outShape)
	}
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, 1)
	// Corner output averages the single valid tap.
	if out.At(0, 0, 0, 0) != 2 {
		t.Fatalf("corner = %v", out.At(0, 0, 0, 0))
	}
	// Center averages all four.
	if out.At(0, 0, 1, 1) != 5 {
		t.Fatalf("center = %v", out.At(0, 0, 1, 1))
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 3, H: 4, W: 4})
	for c := 0; c < 3; c++ {
		for i := 0; i < 16; i++ {
			in.Data[c*16+i] = float32(c + 1)
		}
	}
	l := &Pool{LayerName: "gap", Global: true}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	if outShape.H != 1 || outShape.W != 1 || outShape.C != 3 {
		t.Fatalf("out %v", outShape)
	}
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, 3)
	for c := 0; c < 3; c++ {
		if out.Data[c] != float32(c+1) {
			t.Fatalf("gap[%d] = %v", c, out.Data[c])
		}
	}
}

func TestMaxPoolQExactUnderAffineMap(t *testing.T) {
	// Max commutes with the monotone affine dequantization, so quantized
	// max pooling must match quantize(maxpool(dequantize)) exactly.
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 6, W: 6})
	in.FillRandom(9, 2)
	p := quant.ChooseParams(-2, 2)
	qin := tensor.Quantize(in, p)
	l := &Pool{LayerName: "mp", Max: true, KH: 3, KW: 3, StrideH: 2, StrideW: 2}
	outShape, _ := l.OutShape([]tensor.Shape{qin.Shape})
	qout := tensor.NewQ(outShape, p)
	l.ForwardQ([]*tensor.QTensor{qin}, qout, 0, 2)
	fin := tensor.Dequantize(qin)
	fout := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{fin}, fout, 0, 2)
	for i := range qout.Data {
		if got, want := qout.Data[i], p.Quantize(fout.Data[i]); got != want {
			t.Fatalf("elem %d: %d vs %d", i, got, want)
		}
	}
}

func TestPoolSplitMerge(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 5, H: 8, W: 8})
	in.FillRandom(10, 1)
	l := &Pool{LayerName: "mp", Max: true, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	full := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, full, 0, 5)
	a, b := tensor.New(outShape), tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, a, 0, 2)
	l.ForwardF32([]*tensor.Tensor{in}, b, 2, 5)
	m := tensor.New(outShape)
	m.CopyChannels(a, 0, 2)
	m.CopyChannels(b, 2, 5)
	if m.MaxAbsDiff(full) != 0 {
		t.Fatal("pool split-merge differs")
	}
	if l.SplitChannels([]tensor.Shape{in.Shape}) != 5 {
		t.Fatal("pool splits over its channel count")
	}
}

func TestPoolF16(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 4, W: 4})
	in.FillRandom(12, 1)
	l := &Pool{LayerName: "ap", KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	fout := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, fout, 0, 2)
	hout := tensor.NewH(outShape)
	l.ForwardF16([]*tensor.HTensor{tensor.ToHalf(in)}, hout, 0, 2)
	if d := tensor.HalfToFloat(hout).MaxAbsDiff(fout); d > 0.005 {
		t.Fatalf("F16 pooling error %v", d)
	}
}

func TestReLUAllPipelines(t *testing.T) {
	in := tensor.NewFrom(tensor.Shape{N: 1, C: 2, H: 1, W: 2}, []float32{-1, 2, -3, 4})
	l := &ReLU{LayerName: "relu"}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, 2)
	want := []float32{0, 2, 0, 4}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("relu f32 [%d] = %v", i, out.Data[i])
		}
	}
	p := quant.ChooseParams(-3, 4)
	qin := tensor.Quantize(in, p)
	qout := tensor.NewQ(outShape, p)
	l.ForwardQ([]*tensor.QTensor{qin}, qout, 0, 2)
	for i := range qout.Data {
		got := p.Dequantize(qout.Data[i])
		if math.Abs(float64(got-want[i])) > float64(p.Scale) {
			t.Fatalf("relu q [%d] = %v want %v", i, got, want[i])
		}
	}
	hout := tensor.NewH(outShape)
	l.ForwardF16([]*tensor.HTensor{tensor.ToHalf(in)}, hout, 0, 2)
	for i, w := range want {
		if hout.Data[i].Float32() != w {
			t.Fatalf("relu f16 [%d] = %v", i, hout.Data[i].Float32())
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 2, C: 7, H: 1, W: 1})
	in.FillRandom(13, 3)
	l := &Softmax{LayerName: "sm"}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, 7)
	for n := 0; n < 2; n++ {
		var s float64
		maxIn, maxOut := 0, 0
		for c := 0; c < 7; c++ {
			s += float64(out.At(n, c, 0, 0))
			if in.At(n, c, 0, 0) > in.At(n, maxIn, 0, 0) {
				maxIn = c
			}
			if out.At(n, c, 0, 0) > out.At(n, maxOut, 0, 0) {
				maxOut = c
			}
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax sum %v", s)
		}
		if maxIn != maxOut {
			t.Fatal("softmax must preserve the argmax")
		}
	}
	if l.SplitChannels([]tensor.Shape{in.Shape}) != 0 {
		t.Fatal("softmax must not be split")
	}
}

func TestSoftmaxQPreservesArgmax(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 5, H: 1, W: 1})
	copy(in.Data, []float32{0.1, 2.5, -1, 0.9, 2.0})
	pin := quant.ChooseParams(-1, 2.5)
	pout := quant.ChooseParams(0, 1)
	qin := tensor.Quantize(in, pin)
	l := &Softmax{LayerName: "sm"}
	qout := tensor.NewQ(in.Shape, pout)
	l.ForwardQ([]*tensor.QTensor{qin}, qout, 0, 5)
	best := 0
	for c := 1; c < 5; c++ {
		if qout.Data[c] > qout.Data[best] {
			best = c
		}
	}
	if best != 1 {
		t.Fatalf("argmax = %d, want 1", best)
	}
}

func TestLRNFormula(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 5, H: 1, W: 1})
	copy(in.Data, []float32{1, 2, 3, 4, 5})
	l := &LRN{LayerName: "lrn", Size: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, 5)
	// Channel 2 window covers all 5 channels.
	sum := 1.0 + 4 + 9 + 16 + 25
	want := 3.0 / math.Pow(2+1e-4/5*sum, 0.75)
	if d := math.Abs(float64(out.At(0, 2, 0, 0)) - want); d > 1e-5 {
		t.Fatalf("lrn = %v want %v", out.At(0, 2, 0, 0), want)
	}
	// Edge channel window is truncated.
	sum0 := 1.0 + 4 + 9 // channels 0..2
	want0 := 1.0 / math.Pow(2+1e-4/5*sum0, 0.75)
	if d := math.Abs(float64(out.At(0, 0, 0, 0)) - want0); d > 1e-5 {
		t.Fatalf("lrn edge = %v want %v", out.At(0, 0, 0, 0), want0)
	}
}

func TestLRNSplitMerge(t *testing.T) {
	in := tensor.New(tensor.Shape{N: 1, C: 8, H: 3, W: 3})
	in.FillRandom(14, 1)
	l := &LRN{LayerName: "lrn", Size: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	full := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, full, 0, 8)
	a, b := tensor.New(outShape), tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, a, 0, 3)
	l.ForwardF32([]*tensor.Tensor{in}, b, 3, 8)
	m := tensor.New(outShape)
	m.CopyChannels(a, 0, 3)
	m.CopyChannels(b, 3, 8)
	if m.MaxAbsDiff(full) != 0 {
		t.Fatal("LRN split-merge differs (cross-channel reads must come from the shared input)")
	}
}

func TestLRNRejectsEvenWindow(t *testing.T) {
	l := &LRN{LayerName: "lrn", Size: 4}
	if _, err := l.OutShape([]tensor.Shape{{N: 1, C: 4, H: 1, W: 1}}); err == nil {
		t.Error("even window must error")
	}
}

func TestConcatF32AndShapes(t *testing.T) {
	a := tensor.New(tensor.Shape{N: 1, C: 2, H: 2, W: 2})
	b := tensor.New(tensor.Shape{N: 1, C: 3, H: 2, W: 2})
	a.Fill(1)
	b.Fill(2)
	l := &Concat{LayerName: "cat"}
	outShape, err := l.OutShape([]tensor.Shape{a.Shape, b.Shape})
	if err != nil {
		t.Fatal(err)
	}
	if outShape.C != 5 {
		t.Fatalf("out C = %d", outShape.C)
	}
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{a, b}, out, 0, 5)
	if out.At(0, 1, 0, 0) != 1 || out.At(0, 2, 0, 0) != 2 || out.At(0, 4, 1, 1) != 2 {
		t.Fatal("concat ordering")
	}
	if _, err := l.OutShape([]tensor.Shape{a.Shape, {N: 1, C: 1, H: 3, W: 2}}); err == nil {
		t.Error("spatial mismatch must error")
	}
}

func TestConcatQRequantizes(t *testing.T) {
	pa := quant.ChooseParams(-1, 1)
	pb := quant.ChooseParams(-4, 4)
	pout := quant.ChooseParams(-4, 4)
	a := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 1, W: 2}, pa)
	b := tensor.NewQ(tensor.Shape{N: 1, C: 1, H: 1, W: 2}, pb)
	a.Data[0], a.Data[1] = pa.Quantize(0.5), pa.Quantize(-0.5)
	b.Data[0], b.Data[1] = pb.Quantize(3), pb.Quantize(-3)
	l := &Concat{LayerName: "cat"}
	out := tensor.NewQ(tensor.Shape{N: 1, C: 2, H: 1, W: 2}, pout)
	l.ForwardQ([]*tensor.QTensor{a, b}, out, 0, 2)
	wants := []float32{0.5, -0.5, 3, -3}
	for i, w := range wants {
		got := pout.Dequantize(out.Data[i])
		if math.Abs(float64(got-w)) > float64(pout.Scale) {
			t.Fatalf("elem %d: %v want %v", i, got, w)
		}
	}

	// Every input code of a mismatched input, in both batch elements, maps
	// to the element-wise requantization; a matching input is copied.
	all := tensor.NewQ(tensor.Shape{N: 2, C: 2, H: 8, W: 8}, pa)
	same := tensor.NewQ(tensor.Shape{N: 2, C: 1, H: 8, W: 8}, pout)
	for i := range all.Data {
		all.Data[i] = uint8(i * 7) // 256 elements: every code once
	}
	for i := range same.Data {
		same.Data[i] = uint8(255 - i)
	}
	big := tensor.NewQ(tensor.Shape{N: 2, C: 3, H: 8, W: 8}, pout)
	l.ForwardQ([]*tensor.QTensor{same, all}, big, 0, 3)
	for n := 0; n < 2; n++ {
		for i := 0; i < 64; i++ {
			if got, want := big.Data[n*192+i], same.Data[n*64+i]; got != want {
				t.Fatalf("copied input n=%d elem %d: %d want %d", n, i, got, want)
			}
		}
		for i := 0; i < 128; i++ {
			q := all.Data[n*128+i]
			if got, want := big.Data[n*192+64+i], pout.Quantize(pa.Dequantize(q)); got != want {
				t.Fatalf("requantized code %d (n=%d): %d want %d", q, n, got, want)
			}
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpInput, OpConv, OpDepthwise, OpFC, OpMaxPool, OpAvgPool, OpReLU, OpLRN, OpConcat, OpSoftmax}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
}

func TestInputLayer(t *testing.T) {
	l := &Input{LayerName: "input", Shape: tensor.Shape{N: 1, C: 3, H: 8, W: 8}}
	s, err := l.OutShape(nil)
	if err != nil || s != l.Shape {
		t.Fatal("input shape")
	}
	if _, err := l.OutShape([]tensor.Shape{s}); err == nil {
		t.Error("input with inputs must error")
	}
	if l.Cost(nil) != (Cost{}) || l.SplitChannels(nil) != 0 || l.Quant() != nil {
		t.Error("input layer must be inert")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{MACs: 1, InElems: 2, WElems: 3, OutElems: 4}
	b := Cost{MACs: 10, InElems: 20, WElems: 30, OutElems: 40}
	got := a.Add(b)
	if got != (Cost{MACs: 11, InElems: 22, WElems: 33, OutElems: 44}) {
		t.Fatalf("Add = %+v", got)
	}
}
