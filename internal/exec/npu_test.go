package exec

import (
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

var (
	npuSoC  = soc.Exynos7420NPU()
	npuPred = profile.Build(npuSoC.Processors()...)
)

func npuCfg(m *models.Model, pipe partition.Pipeline, numeric bool) Config {
	return Config{
		SoC: npuSoC, Pipe: pipe, Numeric: numeric,
		InputParams: m.InputParams, AsyncIssue: true, ZeroCopy: true,
	}
}

func TestThreeWaySplitBitExactVsSingleCPU(t *testing.T) {
	// Under a uniform QUInt8 pipeline all three processors run identical
	// integer arithmetic, so a forced three-way split must reproduce the
	// single-CPU output bit for bit — the §8.3 no-redundancy invariant.
	m := smallModel(t, models.GoogLeNet)
	in := testInput(m)
	pipe := partition.Uniform(tensor.QUInt8)

	single, err := partition.Build(m.Graph, partition.SingleProcessor(npuSoC, npuPred, device.CPU, tensor.QUInt8))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(m.Graph, single, in, npuCfg(m, pipe, true))
	if err != nil {
		t.Fatal(err)
	}

	shapes, _ := m.Graph.InferShapes()
	var plan partition.Plan
	order, _ := m.Graph.Toposort()
	for _, id := range order {
		n := m.Graph.Node(id)
		if n.Layer.Kind() == nn.OpInput {
			continue
		}
		st := &partition.LayerStep{Node: id, P: 1}
		if n.Layer.SplitChannels(m.Graph.InputShapes(id, shapes)) >= 3 {
			st.P, st.PNPU = 0.25, 0.25 // CPU 25%, NPU 25%, GPU 50%
		}
		plan.Steps = append(plan.Steps, partition.Step{Layer: st})
	}
	got, err := Run(m.Graph, &plan, in, npuCfg(m, pipe, true))
	if err != nil {
		t.Fatal(err)
	}
	if got.Output.MaxAbsDiff(ref.Output) != 0 {
		t.Fatal("three-way uniform-QUInt8 output differs from single-CPU output")
	}
	if got.Report.NPUBusy <= 0 {
		t.Fatal("the NPU must have been busy")
	}
}

func TestMuLayerNPUBeatsTwoWaySimulated(t *testing.T) {
	for _, build := range []func(models.Config) (*models.Model, error){models.VGG16, models.GoogLeNet} {
		m, err := build(models.Config{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(o partition.Options) *Result {
			plan, err := partition.Build(m.Graph, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(m.Graph, plan, nil, Config{SoC: npuSoC, Pipe: o.Pipe, AsyncIssue: true, ZeroCopy: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		three := run(partition.MuLayerNPU(npuSoC, npuPred))
		two := run(partition.MuLayer(npuSoC, npuPred))
		npuOnly := run(partition.NPUOnly(npuSoC, npuPred))
		if three.Report.Latency >= two.Report.Latency {
			t.Errorf("%s: three-way %v !< two-way %v", m.Name, three.Report.Latency, two.Report.Latency)
		}
		if three.Report.Latency >= npuOnly.Report.Latency {
			t.Errorf("%s: three-way %v !< NPU-only %v", m.Name, three.Report.Latency, npuOnly.Report.Latency)
		}
		if three.Report.NPUBusy <= 0 || three.Report.CPUBusy <= 0 || three.Report.GPUBusy <= 0 {
			t.Errorf("%s: all three processors must contribute", m.Name)
		}
		if err := three.Timeline.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestNPUOnlyUsesOnlyNPU(t *testing.T) {
	m, _ := models.AlexNet(models.Config{})
	o := partition.NPUOnly(npuSoC, npuPred)
	plan, err := partition.Build(m.Graph, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m.Graph, plan, nil, Config{SoC: npuSoC, Pipe: o.Pipe, AsyncIssue: true, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CPUBusy != 0 || res.Report.GPUBusy != 0 {
		t.Fatal("NPU-only must not touch the CPU or GPU")
	}
	if res.Report.NPUBusy == 0 {
		t.Fatal("NPU must be busy")
	}
}

func TestThreeWayNumericMuLayerNPU(t *testing.T) {
	// End-to-end: a planned three-way processor-friendly run computes
	// correctly (argmax preserved vs the F32 reference).
	m := smallModel(t, models.SqueezeNetV11)
	in := testInput(m)
	refVals, err := m.RunF32(in)
	if err != nil {
		t.Fatal(err)
	}
	o := partition.MuLayerNPU(npuSoC, npuPred)
	plan, err := partition.Build(m.Graph, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m.Graph, plan, in, npuCfg(m, o.Pipe, true))
	if err != nil {
		t.Fatal(err)
	}
	if argmax(res.Output) != argmax(refVals[m.Graph.Output()]) {
		t.Fatal("three-way inference changed the predicted class")
	}
}
