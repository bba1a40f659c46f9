package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// newTestConv builds a small convolution with deterministic random weights
// and calibrated quantization grids derived from a reference input.
func newTestConv(t *testing.T, inC, outC, k, stride, pad, groups int, act quant.Activation) (*Conv2D, *tensor.Tensor) {
	t.Helper()
	in := tensor.New(tensor.Shape{N: 1, C: inC, H: 9, W: 9})
	in.FillRandom(11, 1)
	icg := inC
	if groups > 1 {
		icg = inC / groups
	}
	w := tensor.New(tensor.Shape{N: outC, C: icg, H: k, W: k})
	w.FillRandom(22, 0.5)
	bias := make([]float32, outC)
	for i := range bias {
		bias[i] = float32(i%5) * 0.1
	}
	l := &Conv2D{
		LayerName: "conv_t", InC: inC, OutC: outC,
		KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		Groups: groups, Act: act, W: w, Bias: bias,
	}
	// Calibrate activation grids from the F32 reference run.
	outShape, err := l.OutShape([]tensor.Shape{in.Shape})
	if err != nil {
		t.Fatal(err)
	}
	ref := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, ref, 0, outC)
	inMin, inMax := in.Range()
	oMin, oMax := ref.Range()
	l.SetQuant(quant.ChooseParams(inMin, inMax), quant.ChooseParams(oMin, oMax))
	return l, in
}

func TestConvSplitMergeEqualsFullF32(t *testing.T) {
	l, in := newTestConv(t, 4, 8, 3, 1, 1, 1, quant.ActReLU)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	full := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, full, 0, l.OutC)
	for split := 1; split < l.OutC; split++ {
		cpu := tensor.New(outShape)
		gpu := tensor.New(outShape)
		l.ForwardF32([]*tensor.Tensor{in}, cpu, 0, split)
		l.ForwardF32([]*tensor.Tensor{in}, gpu, split, l.OutC)
		merged := tensor.New(outShape)
		merged.CopyChannels(cpu, 0, split)
		merged.CopyChannels(gpu, split, l.OutC)
		if merged.MaxAbsDiff(full) != 0 {
			t.Fatalf("split %d: merged F32 output differs from full run", split)
		}
	}
}

func TestConvSplitMergeEqualsFullQ(t *testing.T) {
	l, in := newTestConv(t, 4, 8, 3, 1, 1, 1, quant.ActNone)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	qin := tensor.Quantize(in, l.QI.In)
	full := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, full, 0, l.OutC)
	for _, split := range []int{1, 2, 4, 6, 7} {
		a := tensor.NewQ(outShape, l.QI.Out)
		b := tensor.NewQ(outShape, l.QI.Out)
		l.ForwardQ([]*tensor.QTensor{qin}, a, 0, split)
		l.ForwardQ([]*tensor.QTensor{qin}, b, split, l.OutC)
		merged := tensor.NewQ(outShape, l.QI.Out)
		merged.CopyChannels(a, 0, split)
		merged.CopyChannels(b, split, l.OutC)
		for i := range merged.Data {
			if merged.Data[i] != full.Data[i] {
				t.Fatalf("split %d elem %d: %d vs %d (quantized path must be bit-exact)", split, i, merged.Data[i], full.Data[i])
			}
		}
	}
}

func TestConvProcessorFriendlySplitBitExactPerSide(t *testing.T) {
	// μLayer's cooperative execution: CPU computes [0,split) in QUInt8 and
	// GPU computes [split,outC) via F16. Each side must be bit-identical to
	// the corresponding channels of its own full single-processor run —
	// the no-redundancy invariant with heterogeneous arithmetic.
	l, in := newTestConv(t, 4, 8, 3, 1, 1, 1, quant.ActReLU)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	qin := tensor.Quantize(in, l.QI.In)
	cpuFull := tensor.NewQ(outShape, l.QI.Out)
	gpuFull := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, cpuFull, 0, l.OutC)
	l.ForwardQViaF16([]*tensor.QTensor{qin}, gpuFull, 0, l.OutC)
	split := 5
	merged := tensor.NewQ(outShape, l.QI.Out)
	cpuPart := tensor.NewQ(outShape, l.QI.Out)
	gpuPart := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, cpuPart, 0, split)
	l.ForwardQViaF16([]*tensor.QTensor{qin}, gpuPart, split, l.OutC)
	merged.CopyChannels(cpuPart, 0, split)
	merged.CopyChannels(gpuPart, split, l.OutC)
	for n := 0; n < outShape.N; n++ {
		lo, hi := outShape.ChannelSpan(n, 0, split)
		for i := lo; i < hi; i++ {
			if merged.Data[i] != cpuFull.Data[i] {
				t.Fatalf("CPU-side channel data differs at %d", i)
			}
		}
		lo, hi = outShape.ChannelSpan(n, split, l.OutC)
		for i := lo; i < hi; i++ {
			if merged.Data[i] != gpuFull.Data[i] {
				t.Fatalf("GPU-side channel data differs at %d", i)
			}
		}
	}
}

func TestConvQCloseToF32(t *testing.T) {
	l, in := newTestConv(t, 3, 6, 3, 1, 1, 1, quant.ActReLU)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	ref := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, ref, 0, l.OutC)
	qin := tensor.Quantize(in, l.QI.In)
	qout := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, qout, 0, l.OutC)
	deq := tensor.Dequantize(qout)
	// Input and weight quantization noise propagate through the K taps;
	// allow a few output quantization steps.
	tol := float64(l.QI.Out.Scale) * 6
	if d := deq.MaxAbsDiff(ref); d > tol {
		t.Fatalf("quantized output error %v exceeds %v", d, tol)
	}
}

func TestConvQViaF16CloseToQ(t *testing.T) {
	// Paper §4: the CPU (QUInt8) and GPU (F16) compute slightly different
	// results from identical quantized inputs; both must stay near the F32
	// reference. Verify the two quantized pipelines agree within a step or
	// two of each other.
	l, in := newTestConv(t, 3, 6, 3, 1, 1, 1, quant.ActNone)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	qin := tensor.Quantize(in, l.QI.In)
	a := tensor.NewQ(outShape, l.QI.Out)
	b := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, a, 0, l.OutC)
	l.ForwardQViaF16([]*tensor.QTensor{qin}, b, 0, l.OutC)
	for i := range a.Data {
		d := int(a.Data[i]) - int(b.Data[i])
		if d < -2 || d > 2 {
			t.Fatalf("elem %d: CPU %d vs GPU %d differ by more than 2 steps", i, a.Data[i], b.Data[i])
		}
	}
}

func TestConvF16CloseToF32(t *testing.T) {
	l, in := newTestConv(t, 3, 6, 3, 1, 1, 1, quant.ActReLU)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	ref := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, ref, 0, l.OutC)
	hin := tensor.ToHalf(in)
	hout := tensor.NewH(outShape)
	l.ForwardF16([]*tensor.HTensor{hin}, hout, 0, l.OutC)
	got := tensor.HalfToFloat(hout)
	if d := got.MaxAbsDiff(ref); d > 0.02 {
		t.Fatalf("F16 error vs F32: %v", d)
	}
}

func TestDepthwiseConv(t *testing.T) {
	l, in := newTestConv(t, 6, 6, 3, 1, 1, 6, quant.ActNone)
	if l.Kind() != OpDepthwise {
		t.Fatal("groups==InC should classify as depthwise")
	}
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, l.OutC)
	// Independent check for one output element: channel 2, position (4,4).
	var want float32
	for kh := 0; kh < 3; kh++ {
		for kw := 0; kw < 3; kw++ {
			want += l.W.At(2, 0, kh, kw) * in.At(0, 2, 3+kh, 3+kw)
		}
	}
	want += l.Bias[2]
	if got := out.At(0, 2, 4, 4); math.Abs(float64(got-want)) > 1e-4 {
		t.Fatalf("depthwise elem: got %v want %v", got, want)
	}
	// Split-merge exactness for grouped path too.
	a := tensor.New(outShape)
	b := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, a, 0, 2)
	l.ForwardF32([]*tensor.Tensor{in}, b, 2, 6)
	merged := tensor.New(outShape)
	merged.CopyChannels(a, 0, 2)
	merged.CopyChannels(b, 2, 6)
	if merged.MaxAbsDiff(out) != 0 {
		t.Fatal("depthwise split-merge differs")
	}
}

func TestGroupedConvMatchesTwoHalves(t *testing.T) {
	// A 2-group conv must equal two independent convs on channel halves.
	l, in := newTestConv(t, 4, 6, 3, 1, 1, 2, quant.ActNone)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.New(outShape)
	l.ForwardF32([]*tensor.Tensor{in}, out, 0, l.OutC)
	// Build the group-0 sub-conv: input channels [0,2), output channels [0,3).
	sub := &Conv2D{
		LayerName: "g0", InC: 2, OutC: 3, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1,
		W:    tensor.NewFrom(tensor.Shape{N: 3, C: 2, H: 3, W: 3}, l.W.Data[:3*2*9]),
		Bias: l.Bias[:3],
	}
	subIn := tensor.New(tensor.Shape{N: 1, C: 2, H: 9, W: 9})
	copy(subIn.Data, in.Data[:2*81])
	subOutShape, _ := sub.OutShape([]tensor.Shape{subIn.Shape})
	subOut := tensor.New(subOutShape)
	sub.ForwardF32([]*tensor.Tensor{subIn}, subOut, 0, 3)
	for c := 0; c < 3; c++ {
		for y := 0; y < outShape.H; y++ {
			for x := 0; x < outShape.W; x++ {
				if d := math.Abs(float64(out.At(0, c, y, x) - subOut.At(0, c, y, x))); d > 1e-4 {
					t.Fatalf("group conv mismatch at c=%d (%v vs %v)", c, out.At(0, c, y, x), subOut.At(0, c, y, x))
				}
			}
		}
	}
}

func TestConvQDepthwiseSplitBitExact(t *testing.T) {
	l, in := newTestConv(t, 4, 4, 3, 1, 1, 4, quant.ActReLU)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	qin := tensor.Quantize(in, l.QI.In)
	full := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, full, 0, 4)
	a := tensor.NewQ(outShape, l.QI.Out)
	b := tensor.NewQ(outShape, l.QI.Out)
	l.ForwardQ([]*tensor.QTensor{qin}, a, 0, 1)
	l.ForwardQ([]*tensor.QTensor{qin}, b, 1, 4)
	merged := tensor.NewQ(outShape, l.QI.Out)
	merged.CopyChannels(a, 0, 1)
	merged.CopyChannels(b, 1, 4)
	for i := range merged.Data {
		if merged.Data[i] != full.Data[i] {
			t.Fatalf("depthwise Q split-merge differs at %d", i)
		}
	}
}

func TestConvShapeErrors(t *testing.T) {
	l := &Conv2D{LayerName: "c", InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if _, err := l.OutShape(nil); err == nil {
		t.Error("no inputs must error")
	}
	if _, err := l.OutShape([]tensor.Shape{{N: 1, C: 4, H: 8, W: 8}}); err == nil {
		t.Error("channel mismatch must error")
	}
	if _, err := l.OutShape([]tensor.Shape{{N: 1, C: 3, H: 2, W: 2}}); err == nil {
		t.Error("too-small input must error")
	}
	bad := &Conv2D{LayerName: "b", InC: 3, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 2}
	if _, err := bad.OutShape([]tensor.Shape{{N: 1, C: 3, H: 4, W: 4}}); err == nil {
		t.Error("indivisible groups must error")
	}
}

func TestConvCostAccounting(t *testing.T) {
	// VGG-16 conv1_1: 3→64 channels, 3×3, 224², stride 1, pad 1.
	l := &Conv2D{LayerName: "conv1_1", InC: 3, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := tensor.Shape{N: 1, C: 3, H: 224, W: 224}
	c := l.Cost([]tensor.Shape{in})
	wantMACs := int64(64) * 224 * 224 * 3 * 3 * 3 // ≈86.7M
	if c.MACs != wantMACs {
		t.Fatalf("MACs = %d, want %d", c.MACs, wantMACs)
	}
	if c.WElems != 64*3*3*3 {
		t.Fatalf("WElems = %d", c.WElems)
	}
	if c.OutElems != 64*224*224 {
		t.Fatalf("OutElems = %d", c.OutElems)
	}
	// Scaling by p=0.5 halves compute and weights, keeps input reads.
	h := c.Scale(0.5)
	if h.MACs != wantMACs/2 || h.InElems != c.InElems || h.WElems != c.WElems/2 {
		t.Fatal("Cost.Scale semantics")
	}
}

func TestConvPropertySplitMergeQ(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(inCs, outCs, ks, splitS uint8) bool {
		inC := int(inCs%4) + 1
		outC := int(outCs%8) + 2
		k := []int{1, 3}[int(ks)%2]
		split := int(splitS)%(outC-1) + 1
		in := tensor.New(tensor.Shape{N: 1, C: inC, H: 6, W: 6})
		in.FillRandom(uint64(rng.Int63()), 1)
		w := tensor.New(tensor.Shape{N: outC, C: inC, H: k, W: k})
		w.FillRandom(uint64(rng.Int63()), 0.6)
		l := &Conv2D{LayerName: "p", InC: inC, OutC: outC, KH: k, KW: k, StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2, W: w}
		outShape, err := l.OutShape([]tensor.Shape{in.Shape})
		if err != nil {
			return false
		}
		ref := tensor.New(outShape)
		l.ForwardF32([]*tensor.Tensor{in}, ref, 0, outC)
		inMin, inMax := in.Range()
		oMin, oMax := ref.Range()
		l.SetQuant(quant.ChooseParams(inMin, inMax), quant.ChooseParams(oMin, oMax))
		qin := tensor.Quantize(in, l.QI.In)
		full := tensor.NewQ(outShape, l.QI.Out)
		l.ForwardQ([]*tensor.QTensor{qin}, full, 0, outC)
		a := tensor.NewQ(outShape, l.QI.Out)
		b := tensor.NewQ(outShape, l.QI.Out)
		l.ForwardQ([]*tensor.QTensor{qin}, a, 0, split)
		l.ForwardQ([]*tensor.QTensor{qin}, b, split, outC)
		merged := tensor.NewQ(outShape, l.QI.Out)
		merged.CopyChannels(a, 0, split)
		merged.CopyChannels(b, split, outC)
		for i := range merged.Data {
			if merged.Data[i] != full.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvPanicsOnBadRange(t *testing.T) {
	l, in := newTestConv(t, 2, 4, 3, 1, 1, 1, quant.ActNone)
	outShape, _ := l.OutShape([]tensor.Shape{in.Shape})
	out := tensor.New(outShape)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds channel range must panic")
		}
	}()
	l.ForwardF32([]*tensor.Tensor{in}, out, 2, 9)
}

func TestConvSpecOnlyPanicsOnForward(t *testing.T) {
	l := &Conv2D{LayerName: "spec", InC: 2, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	in := tensor.New(tensor.Shape{N: 1, C: 2, H: 2, W: 2})
	out := tensor.New(tensor.Shape{N: 1, C: 2, H: 2, W: 2})
	defer func() {
		if recover() == nil {
			t.Error("spec-only forward must panic")
		}
	}()
	l.ForwardF16([]*tensor.HTensor{tensor.ToHalf(in)}, tensor.NewH(out.Shape), 0, 2)
}

// The CPU and GPU halves of a split layer may run on two goroutines. A
// layer that was never calibrated derives its binary16 weights on first
// use, so concurrent first forwards over disjoint channel ranges must not
// race (run under -race by `make race`) and must together write exactly
// the whole-layer output. The FC case also builds its convolution lazily.
func TestConcurrentHalvesOfUncalibratedLayers(t *testing.T) {
	type halfLayer interface {
		Layer
		ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int)
	}
	weights := func(s tensor.Shape) *tensor.Tensor {
		w := tensor.New(s)
		w.FillRandom(92, 0.5)
		return w
	}
	layers := map[string]func() halfLayer{
		"dense": func() halfLayer {
			return &Conv2D{LayerName: "dense", InC: 6, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
				Act: quant.ActReLU, W: weights(tensor.Shape{N: 8, C: 6, H: 3, W: 3}), Bias: make([]float32, 8)}
		},
		"grouped": func() halfLayer {
			return &Conv2D{LayerName: "dw", InC: 6, OutC: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 6,
				Act: quant.ActReLU, W: weights(tensor.Shape{N: 6, C: 1, H: 3, W: 3}), Bias: make([]float32, 6)}
		},
		"fc": func() halfLayer {
			return &FullyConnected{LayerName: "fc", InFeatures: 6 * 7 * 7, OutC: 10, Act: quant.ActReLU,
				W: weights(tensor.Shape{N: 10, C: 6 * 7 * 7, H: 1, W: 1})}
		},
	}
	in := tensor.New(tensor.Shape{N: 2, C: 6, H: 7, W: 7})
	in.FillRandom(91, 1)
	ins := []*tensor.HTensor{tensor.ToHalf(in)}
	for name, build := range layers {
		whole := build()
		outShape, err := whole.OutShape([]tensor.Shape{in.Shape})
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.NewH(outShape)
		whole.ForwardF16(ins, want, 0, outShape.C)

		split, got := build(), tensor.NewH(outShape)
		var wg sync.WaitGroup
		for _, r := range [][2]int{{0, outShape.C / 2}, {outShape.C / 2, outShape.C}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				split.ForwardF16(ins, got, r[0], r[1])
			}()
		}
		wg.Wait()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s elem %d: concurrent halves %#04x, whole layer %#04x", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}
