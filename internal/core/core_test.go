package core

import (
	"testing"

	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/sim"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

func newRT(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(soc.Exynos7420())
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewRuntimeValidates(t *testing.T) {
	if _, err := NewRuntime(nil); err == nil {
		t.Fatal("nil SoC must fail")
	}
	bad := soc.Exynos7420()
	bad.CPU.Cores = 0
	if _, err := NewRuntime(bad); err == nil {
		t.Fatal("invalid SoC must fail")
	}
	rt := newRT(t)
	if rt.SoC() == nil || rt.Predictor() == nil {
		t.Fatal("accessors")
	}
}

func TestAllMechanismsCostOnly(t *testing.T) {
	rt := newRT(t)
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mechs := []Mechanism{
		MechCPUOnly, MechGPUOnly, MechLayerToProcessor,
		MechChannelDist, MechChannelDistProcQuant, MechMuLayer,
	}
	var prev string
	for _, mech := range mechs {
		res, err := rt.Run(m, nil, RunConfig{Mechanism: mech, DType: tensor.QUInt8})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if res.Report.Latency <= 0 {
			t.Fatalf("%v: non-positive latency", mech)
		}
		if mech.String() == prev || mech.String() == "" {
			t.Fatalf("mechanism strings must be distinct, got %q", mech.String())
		}
		prev = mech.String()
	}
	if Mechanism(99).String() == "" {
		t.Fatal("unknown mechanism string")
	}
}

func TestMuLayerBeatsBaseline(t *testing.T) {
	rt := newRT(t)
	m, _ := models.VGG16(models.Config{})
	mu, err := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayer})
	if err != nil {
		t.Fatal(err)
	}
	l2p, err := rt.Run(m, nil, RunConfig{Mechanism: MechLayerToProcessor})
	if err != nil {
		t.Fatal(err)
	}
	if mu.Report.Latency >= l2p.Report.Latency {
		t.Fatalf("μLayer %v !< layer-to-processor %v", mu.Report.Latency, l2p.Report.Latency)
	}
}

func TestNumericRunRequiresCalibration(t *testing.T) {
	rt := newRT(t)
	m, err := models.LeNet5(models.Config{Numeric: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(m.InputShape)
	in.FillRandom(1, 1)
	if _, err := rt.Run(m, in, RunConfig{Mechanism: MechMuLayer, Numeric: true}); err == nil {
		t.Fatal("uncalibrated quantized numeric run must fail")
	}
	if err := m.Calibrate([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(m, in, RunConfig{Mechanism: MechMuLayer, Numeric: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == nil {
		t.Fatal("numeric run must produce output")
	}
}

func TestNumericRunRejectsSpecOnly(t *testing.T) {
	rt := newRT(t)
	m, _ := models.VGG16(models.Config{})
	if _, err := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayer, Numeric: true}); err == nil {
		t.Fatal("spec-only numeric run must fail")
	}
}

func TestAblationFlags(t *testing.T) {
	rt := newRT(t)
	m, _ := models.GoogLeNet(models.Config{})
	full, _ := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayer})
	noAsync, _ := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayer, DisableAsyncIssue: true})
	noZC, _ := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayer, DisableZeroCopy: true})
	if noAsync.Report.Latency <= full.Report.Latency {
		t.Fatal("disabling async issue must cost time")
	}
	if noZC.Report.Latency <= full.Report.Latency {
		t.Fatal("disabling zero-copy must cost time")
	}
}

func TestPlanCoversModel(t *testing.T) {
	rt := newRT(t)
	m, _ := models.SqueezeNetV11(models.Config{})
	plan, err := rt.Plan(m, RunConfig{Mechanism: MechMuLayer})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, n := range plan.Covered() {
		covered += n
	}
	if covered != m.Graph.Len()-1 { // every node except the input
		t.Fatalf("plan covers %d of %d nodes", covered, m.Graph.Len()-1)
	}
}

func TestUnknownMechanism(t *testing.T) {
	rt := newRT(t)
	m, _ := models.VGG16(models.Config{})
	if _, err := rt.Run(m, nil, RunConfig{Mechanism: Mechanism(42)}); err == nil {
		t.Fatal("unknown mechanism must fail")
	}
}

func TestNPUMechanisms(t *testing.T) {
	rt, err := NewRuntime(soc.Exynos7420NPU())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := models.GoogLeNet(models.Config{})
	three, err := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayerNPU})
	if err != nil {
		t.Fatal(err)
	}
	two, err := rt.Run(m, nil, RunConfig{Mechanism: MechMuLayer})
	if err != nil {
		t.Fatal(err)
	}
	npu, err := rt.Run(m, nil, RunConfig{Mechanism: MechNPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	if three.Report.Latency >= two.Report.Latency || three.Report.Latency >= npu.Report.Latency {
		t.Fatalf("three-way %v must beat two-way %v and NPU-only %v",
			three.Report.Latency, two.Report.Latency, npu.Report.Latency)
	}
	if three.Report.NPUBusy <= 0 {
		t.Fatal("NPU busy time missing")
	}
}

func TestNPUMechanismsRequireNPUSoC(t *testing.T) {
	rt := newRT(t) // plain Exynos 7420
	m, _ := models.LeNet5(models.Config{})
	if _, err := rt.Run(m, nil, RunConfig{Mechanism: MechNPUOnly}); err == nil {
		t.Fatal("NPU-only on an NPU-less SoC must fail")
	}
}

// TestRunConfigDTypeDefaultsToF32 pins the zero DType: a single-processor
// mechanism with no DType plans and simulates the F32 pipeline, which is
// what a served cpu-only or gpu-only request runs.
func TestRunConfigDTypeDefaultsToF32(t *testing.T) {
	rt := newRT(t)
	o, err := rt.options(RunConfig{Mechanism: MechCPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	if o.Pipe != partition.Uniform(tensor.F32) {
		t.Fatalf("unset DType plans pipeline %+v, want uniform F32", o.Pipe)
	}
	m, err := models.SqueezeNetV11(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(rc RunConfig) sim.Report {
		res, err := rt.Run(m, nil, rc)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report
	}
	def := run(RunConfig{Mechanism: MechCPUOnly})
	if f32 := run(RunConfig{Mechanism: MechCPUOnly, DType: tensor.F32}); def.Latency != f32.Latency || def.TotalJ() != f32.TotalJ() {
		t.Fatalf("unset DType report %v / %v J, F32 report %v / %v J", def.Latency, def.TotalJ(), f32.Latency, f32.TotalJ())
	}
	if q := run(RunConfig{Mechanism: MechCPUOnly, DType: tensor.QUInt8}); q.Latency == def.Latency {
		t.Fatal("QUInt8 and unset DType simulate the same latency; the default is not telling them apart")
	}
}
