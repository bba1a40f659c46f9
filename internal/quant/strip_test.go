package quant_test

import (
	"math"
	"math/rand"
	"testing"

	"mulayer/internal/cpu"
	"mulayer/internal/exec"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/quant"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// eachLevel runs fn once per output-stage level the host runs — the AVX2
// bodies where the host has them, and the scalar bodies alone — and then
// restores the level chosen at init. It is not safe alongside concurrent
// output-stage calls.
func eachLevel(fn func(level string)) {
	defer func(v bool) { *quant.Vector = v }(*quant.Vector)
	if cpu.AVX2 {
		*quant.Vector = true
		fn("avx2")
	}
	*quant.Vector = false
	fn("scalar")
}

// checkStrip holds Strip at every host level to the scalar oracle,
// element by element, on accs plus bias.
func checkStrip(t *testing.T, r quant.Requantizer, accs []int32, bias int32, what string) {
	t.Helper()
	got := make([]uint8, len(accs))
	eachLevel(func(level string) {
		r.Strip(got, accs, bias)
		for i, a := range accs {
			if want := r.Requantize(a + bias); got[i] != want {
				t.Fatalf("%s %s: Strip(%d + bias %d) = %d, Requantize says %d", level, what, a, bias, got[i], want)
			}
		}
	})
}

// stripAccs are accumulators around every boundary of the pipeline: the
// int32 extremes, zero, the rounding ties of small shifts, and a spread
// of random magnitudes.
func stripAccs(rng *rand.Rand) []int32 {
	accs := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 1, 0, 1, -1, 2, -2, 3, -3}
	for e := 1; e < 31; e++ {
		p := int32(1) << e
		accs = append(accs, p, -p, p-1, 1-p, p>>1, -(p >> 1), p+p>>1, -(p + p>>1))
	}
	for i := 0; i < 512; i++ {
		accs = append(accs, int32(rng.Uint32())>>rng.Intn(32))
	}
	return accs
}

// stripBiases include the ones that overflow the int32 sum with the
// extreme accumulators, which both paths must wrap alike.
var stripBiases = []int32{0, 1, -1, 1000, -1000, math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30)}

// Strip equals Requantize on every output stage the calibrated model zoo
// builds (per-tensor and per-channel weight grids, every activation),
// on grids whose multiplier needs a saturating left shift, including
// shifts that overflow int64 before the saturation, on right shifts up to
// 31, and on every zero point and activation clamp.
func TestRequantizeStripMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	accs := stripAccs(rng)
	check := func(r quant.Requantizer, what string) {
		for _, b := range stripBiases {
			checkStrip(t, r, accs, b, what)
		}
	}

	stages := 0
	for name, m := range zoo(t) {
		for id := 0; id < m.Graph.Len(); id++ {
			var act quant.Activation
			var qi *nn.QuantInfo
			switch l := m.Graph.Node(graph.NodeID(id)).Layer.(type) {
			case *nn.Conv2D:
				act, qi = l.Act, l.Quant()
			case *nn.FullyConnected:
				act, qi = l.Act, l.Quant()
			default:
				continue
			}
			grids := qi.WPerChannel
			if !qi.PerChannel() {
				grids = []quant.Params{qi.W}
			}
			for _, w := range grids {
				check(quant.NewRequantizer(qi.In, w, qi.Out, act), name)
				stages++
			}
		}
	}
	if stages < 100 {
		t.Fatalf("only %d zoo output stages checked", stages)
	}

	for _, zp := range []uint8{0, 1, 128, 254, 255} {
		for _, act := range []quant.Activation{quant.ActNone, quant.ActReLU, quant.ActReLU6} {
			out := quant.Params{Scale: 0.05, ZeroPoint: zp}
			// real = 2^e·0.7: left shifts up to 41 (past int64 for large
			// accumulators), no shift, and right shifts up to 31.
			for e := -31; e <= 40; e++ {
				in := quant.Params{Scale: float32(math.Ldexp(0.7, e)), ZeroPoint: 128}
				check(quant.NewRequantizer(in, quant.Params{Scale: 0.05, ZeroPoint: 3}, out, act), "synthetic")
			}
			for _, real := range []float64{1, 0.5, 0.75, 1.0 / 3, 2, 3e-9, 0.9999999} {
				in := quant.Params{Scale: float32(real), ZeroPoint: 0}
				check(quant.NewRequantizer(in, quant.Params{Scale: 1}, quant.Params{Scale: 1, ZeroPoint: zp}, act), "synthetic")
			}
		}
	}
}

// FuzzRequantizeStrip holds Strip at every host level to Requantize on
// arbitrary grids, zero points, activations, biases and accumulators; the
// strip is long enough for two vector groups and a scalar tail.
func FuzzRequantizeStrip(f *testing.F) {
	f.Add(int32(0), int32(0), float32(1), float32(1), float32(1), uint8(0), uint8(0))
	f.Add(int32(math.MaxInt32), int32(1), float32(0.02), float32(0.01), float32(0.1), uint8(128), uint8(1))
	f.Add(int32(math.MinInt32), int32(-7), float32(3), float32(5), float32(1e-3), uint8(255), uint8(2))
	f.Add(int32(-12345), int32(99), float32(1e-3), float32(2e-3), float32(0.3), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, acc, bias int32, inS, wS, outS float32, zp, act uint8) {
		real := float64(inS) * float64(wS) / float64(outS)
		if !(real > 0) || math.IsInf(real, 0) || real < math.Ldexp(1, -32) {
			return // no multiplier, or a right shift past 31, which both reject
		}
		r := quant.NewRequantizer(quant.Params{Scale: inS}, quant.Params{Scale: wS},
			quant.Params{Scale: outS, ZeroPoint: zp}, quant.Activation(act%3))
		accs := []int32{acc, -acc, acc >> 1, acc ^ 0x5555, acc + 1, acc - 1, ^acc, acc >> 7,
			acc << 3, acc * 3, acc / 5, acc &^ 0xff, acc | 1, acc ^ -1<<30, acc >> 16, acc << 11, acc + bias, acc - bias, 0}
		checkStrip(t, r, accs, bias, "fuzz")
	})
}

// zoo builds the seven bundled models at test size and calibrates each.
func zoo(t *testing.T) map[string]*models.Model {
	t.Helper()
	builders := map[string]func(models.Config) (*models.Model, error){
		"lenet5": models.LeNet5, "alexnet": models.AlexNet, "vgg16": models.VGG16,
		"googlenet": models.GoogLeNet, "squeezenet": models.SqueezeNetV11,
		"mobilenet": models.MobileNetV1, "resnet18": models.ResNet18,
	}
	zoo := make(map[string]*models.Model)
	for name, build := range builders {
		hw := 32
		if name == "alexnet" {
			hw = 64 // AlexNet's stride-4 stem collapses below 64x64
		}
		m, err := build(models.Config{Numeric: true, InputHW: hw, WidthScale: 0.25, Classes: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cal := make([]*tensor.Tensor, 2)
		for i := range cal {
			cal[i] = tensor.New(m.InputShape)
			cal[i].FillRandom(uint64(100+i), 1)
		}
		if err := m.Calibrate(cal); err != nil {
			t.Fatal(err)
		}
		zoo[name] = m
	}
	return zoo
}

// TestGoldenVectorStagesMatchScalar is the golden-output gate for the
// output stages' AVX2 bodies (Strip on the CPU half, HalfSums in the GPU
// half's stage): for every bundled model, pipeline (uniform QUInt8, F32
// and F16, and processor-friendly quantization, whose GPU half is the
// one that runs HalfSums) and split ratio p ∈ {0, .25, .5, .75, 1}, a
// forward pass with the AVX2 bodies must be bit-identical to the same
// pass through the scalar bodies alone. The tiled-vs-reference golden (gemm) runs both of
// its sides through the same output stages, so it cannot see a wrong one.
// On hosts without AVX2 both passes are scalar.
//
// Not parallel: it toggles quant.Vector, which is process-global.
func TestGoldenVectorStagesMatchScalar(t *testing.T) {
	chip := soc.Exynos7420()
	for name, m := range zoo(t) {
		t.Run(name, func(t *testing.T) {
			in := tensor.New(m.InputShape)
			in.FillRandom(9000, 1)
			shapes, err := m.Graph.InferShapes()
			if err != nil {
				t.Fatal(err)
			}
			order, err := m.Graph.Toposort()
			if err != nil {
				t.Fatal(err)
			}
			pipes := []partition.Pipeline{partition.Uniform(tensor.QUInt8), partition.Uniform(tensor.F32),
				partition.Uniform(tensor.F16), partition.ProcessorFriendly()}
			for _, pipe := range pipes {
				cfg := exec.Config{
					SoC: chip, Pipe: pipe, Numeric: true,
					InputParams: m.InputParams, AsyncIssue: true, ZeroCopy: true,
				}
				for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
					// Split every channel-splittable layer at p; the rest
					// run whole on the CPU side.
					var plan partition.Plan
					for _, id := range order {
						n := m.Graph.Node(id)
						if n.Layer.Kind() == nn.OpInput {
							continue
						}
						lp := 1.0
						if n.Layer.SplitChannels(m.Graph.InputShapes(id, shapes)) > 1 {
							lp = p
						}
						plan.Steps = append(plan.Steps, partition.Step{Layer: &partition.LayerStep{Node: id, P: lp}})
					}
					outs := map[string]*tensor.Tensor{}
					eachLevel(func(level string) {
						res, err := exec.Run(m.Graph, &plan, in, cfg)
						if err != nil {
							t.Fatalf("%+v p=%v %s: %v", pipe, p, level, err)
						}
						outs[level] = res.Output
					})
					if v := outs["avx2"]; v != nil {
						if d := v.MaxAbsDiff(outs["scalar"]); d != 0 {
							t.Fatalf("%+v p=%v: AVX2 output stages differ from the scalar ones by %v", pipe, p, d)
						}
					}
				}
			}
		})
	}
}

// BenchmarkStrip times Strip on a 784-wide accumulator strip (one output
// channel of a 28×28 plane) with a calibrated layer's right shift.
func BenchmarkStrip(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	acc := make([]int32, 784)
	for i := range acc {
		acc[i] = int32(rng.NormFloat64() * 20000)
	}
	dst := make([]uint8, len(acc))
	r := quant.NewRequantizer(quant.Params{Scale: 0.02, ZeroPoint: 128}, quant.Params{Scale: 0.004, ZeroPoint: 120},
		quant.Params{Scale: 0.05, ZeroPoint: 0}, quant.ActReLU)
	b.SetBytes(int64(len(acc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Strip(dst, acc, 1234)
	}
}
