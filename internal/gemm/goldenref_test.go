package gemm_test

import (
	"testing"

	"mulayer/internal/exec"
	"mulayer/internal/gemm"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// TestGoldenTiledKernelsMatchRefKernels extends the golden-output gate
// to the packed/tiled GEMM kernels: for every bundled model, split ratio
// p ∈ {0, .25, .5, .75, 1} and uniform storage type (QUInt8, F32, F16),
// a forward pass through the default kernels (packed weights, register
// tiles) must be bit-identical to the same pass forced through the naive
// *Ref oracle loops. The QUInt8 pipeline is exactly integer arithmetic,
// and the float kernels accumulate every element in the reference's
// ascending-k order, so any tiling, packing, or
// zero-point-decomposition bug shows up as a hard diff — there is no
// tolerance to hide behind.
//
// Not parallel: it toggles gemm.ForceRef, which is process-global.
func TestGoldenTiledKernelsMatchRefKernels(t *testing.T) {
	if *gemm.ForceRef {
		t.Fatal("gemm.ForceRef set at test entry")
	}
	defer func() { *gemm.ForceRef = false }()
	chip := soc.Exynos7420()
	builders := map[string]struct {
		build   func(models.Config) (*models.Model, error)
		inputHW int // AlexNet's stride-4 stem collapses below 64x64
	}{
		"lenet5":     {models.LeNet5, 32},
		"alexnet":    {models.AlexNet, 64},
		"vgg16":      {models.VGG16, 32},
		"googlenet":  {models.GoogLeNet, 32},
		"squeezenet": {models.SqueezeNetV11, 32},
		"mobilenet":  {models.MobileNetV1, 32},
		"resnet18":   {models.ResNet18, 32},
	}
	for name, bc := range builders {
		t.Run(name, func(t *testing.T) {
			m, err := bc.build(models.Config{Numeric: true, InputHW: bc.inputHW, WidthScale: 0.25, Classes: 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			cal := make([]*tensor.Tensor, 2)
			for i := range cal {
				in := tensor.New(m.InputShape)
				in.FillRandom(uint64(100+i), 1)
				cal[i] = in
			}
			if err := m.Calibrate(cal); err != nil {
				t.Fatal(err)
			}
			in := tensor.New(m.InputShape)
			in.FillRandom(9000, 1)

			for _, dt := range []tensor.DataType{tensor.QUInt8, tensor.F32, tensor.F16} {
				cfg := exec.Config{
					SoC: chip, Pipe: partition.Uniform(dt), Numeric: true,
					InputParams: m.InputParams, AsyncIssue: true, ZeroCopy: true,
				}
				for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
					plan := splitPlan(t, m, p)

					tiled, err := exec.Run(m.Graph, plan, in, cfg)
					if err != nil {
						t.Fatalf("%v p=%v tiled: %v", dt, p, err)
					}

					*gemm.ForceRef = true
					ref, errRef := exec.Run(m.Graph, plan, in, cfg)
					*gemm.ForceRef = false
					if errRef != nil {
						t.Fatalf("%v p=%v ref: %v", dt, p, errRef)
					}

					if d := tiled.Output.MaxAbsDiff(ref.Output); d != 0 {
						t.Fatalf("%v p=%v: tiled output differs from ref kernels by %v", dt, p, d)
					}
				}
			}
		})
	}
}

// splitPlan splits every channel-splittable layer of m at ratio p and
// runs the rest whole on the CPU side (P = 1).
func splitPlan(t *testing.T, m *models.Model, p float64) *partition.Plan {
	t.Helper()
	shapes, err := m.Graph.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	order, err := m.Graph.Toposort()
	if err != nil {
		t.Fatal(err)
	}
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
	return &plan
}
