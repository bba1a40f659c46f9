package exec

import (
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/tensor"
)

// TestModelMechanismMatrix runs every numeric zoo model through every
// pipeline end to end and checks that the predicted class agrees with the
// F32 reference — the broad integration safety net across layers
// (conv, depthwise, grouped, FC, pools, LRN, concat, residual add,
// softmax) × pipelines (F32, F16, uniform QUInt8, processor-friendly,
// three-way NPU).
func TestModelMechanismMatrix(t *testing.T) {
	type builder struct {
		name  string
		build func(models.Config) (*models.Model, error)
		cfg   models.Config
	}
	small := models.Config{Numeric: true, InputHW: 32, WidthScale: 0.25, Classes: 10, Seed: 1}
	alex := small
	alex.InputHW = 67
	// MobileNet's 27-layer ReLU6 stack crushes logit margins below the
	// softmax output's 8-bit grid, so it is scored on logits (the same
	// treatment as the Figure 10 accuracy experiment).
	mobile := small
	mobile.NoSoftmax = true
	builders := []builder{
		{"lenet", models.LeNet5, models.Config{Numeric: true, Seed: 1}},
		{"alexnet", models.AlexNet, alex},
		{"vgg16", models.VGG16, small},
		{"googlenet", models.GoogLeNet, small},
		{"squeezenet", models.SqueezeNetV11, small},
		{"mobilenet", models.MobileNetV1, mobile},
		{"resnet18", models.ResNet18, small},
	}
	type pipeline struct {
		name string
		opts func(m *models.Model) (partition.Options, Config)
	}
	pipes := []pipeline{
		{"f32-gpu", func(m *models.Model) (partition.Options, Config) {
			o := partition.SingleProcessor(testSoC, testPred, device.GPU, tensor.F32)
			return o, runCfg(m, o.Pipe, true)
		}},
		{"f16-gpu", func(m *models.Model) (partition.Options, Config) {
			o := partition.SingleProcessor(testSoC, testPred, device.GPU, tensor.F16)
			return o, runCfg(m, o.Pipe, true)
		}},
		{"u8-cpu", func(m *models.Model) (partition.Options, Config) {
			o := partition.SingleProcessor(testSoC, testPred, device.CPU, tensor.QUInt8)
			return o, runCfg(m, o.Pipe, true)
		}},
		{"mulayer", func(m *models.Model) (partition.Options, Config) {
			o := partition.MuLayer(testSoC, testPred)
			return o, runCfg(m, o.Pipe, true)
		}},
		{"mulayer+npu", func(m *models.Model) (partition.Options, Config) {
			o := partition.MuLayerNPU(npuSoC, npuPred)
			cfg := Config{SoC: npuSoC, Pipe: o.Pipe, Numeric: true, InputParams: m.InputParams, AsyncIssue: true, ZeroCopy: true}
			return o, cfg
		}},
	}

	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			m, err := b.build(b.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cal := make([]*tensor.Tensor, 2)
			for i := range cal {
				c := tensor.New(m.InputShape)
				c.FillRandom(uint64(100+i), 1)
				cal[i] = c
			}
			if err := m.Calibrate(cal); err != nil {
				t.Fatal(err)
			}
			in := testInput(m)
			refVals, err := m.RunF32(in)
			if err != nil {
				t.Fatal(err)
			}
			want := argmax(refVals[m.Graph.Output()])
			for _, p := range pipes {
				o, cfg := p.opts(m)
				plan, err := partition.Build(m.Graph, o)
				if err != nil {
					t.Fatalf("%s: plan: %v", p.name, err)
				}
				res, err := Run(m.Graph, plan, in, cfg)
				if err != nil {
					t.Fatalf("%s: run: %v", p.name, err)
				}
				if got := argmax(res.Output); got != want {
					t.Errorf("%s: predicted class %d, F32 reference %d", p.name, got, want)
				}
				if res.Report.Latency <= 0 {
					t.Errorf("%s: non-positive latency", p.name)
				}
				if err := res.Timeline.Validate(); err != nil {
					t.Errorf("%s: %v", p.name, err)
				}
			}
		})
	}
}
