package exec

import (
	"testing"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

var (
	testSoC  = soc.Exynos7420()
	testPred = profile.Build(testSoC.CPU, testSoC.GPU)
)

// smallModel builds a calibrated reduced GoogLeNet for numeric runs.
func smallModel(t *testing.T, build func(models.Config) (*models.Model, error)) *models.Model {
	t.Helper()
	m, err := build(models.Config{Numeric: true, InputHW: 32, WidthScale: 0.25, Classes: 10, Seed: 1})
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
	return m
}

func testInput(m *models.Model) *tensor.Tensor {
	in := tensor.New(m.InputShape)
	in.FillRandom(999, 1)
	return in
}

func buildPlan(t *testing.T, m *models.Model, o partition.Options) *partition.Plan {
	t.Helper()
	p, err := partition.Build(m.Graph, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runCfg(m *models.Model, pipe partition.Pipeline, numeric bool) Config {
	return Config{
		SoC: testSoC, Pipe: pipe, Numeric: numeric,
		InputParams: m.InputParams, AsyncIssue: true, ZeroCopy: true,
	}
}

func argmax(t *tensor.Tensor) int {
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

func TestCooperativeSplitBitExactVsSingleCPU(t *testing.T) {
	// With a *uniform* QUInt8 pipeline both processors run identical
	// integer arithmetic, so an everywhere-split cooperative run must be
	// bit-identical to the single-CPU run — the end-to-end no-redundancy
	// invariant of the channel-wise distribution.
	m := smallModel(t, models.GoogLeNet)
	in := testInput(m)
	pipe := partition.Uniform(tensor.QUInt8)

	single := buildPlan(t, m, partition.SingleProcessor(testSoC, testPred, device.CPU, tensor.QUInt8))
	refRes, err := Run(m.Graph, single, in, runCfg(m, pipe, true))
	if err != nil {
		t.Fatal(err)
	}

	// Force a 0.5 split on every splittable layer.
	shapes, _ := m.Graph.InferShapes()
	var split partition.Plan
	order, _ := m.Graph.Toposort()
	for _, id := range order {
		n := m.Graph.Node(id)
		if n.Layer.Kind() == nn.OpInput {
			continue
		}
		p := 1.0
		if n.Layer.SplitChannels(m.Graph.InputShapes(id, shapes)) > 1 {
			p = 0.5
		}
		split.Steps = append(split.Steps, partition.Step{Layer: &partition.LayerStep{Node: id, P: p}})
	}
	coopRes, err := Run(m.Graph, &split, in, runCfg(m, pipe, true))
	if err != nil {
		t.Fatal(err)
	}
	if coopRes.Output.MaxAbsDiff(refRes.Output) != 0 {
		t.Fatal("uniform-QUInt8 cooperative output differs from single-CPU output")
	}
}

func TestProcessorFriendlyCooperativeCloseToF32(t *testing.T) {
	m := smallModel(t, models.GoogLeNet)
	in := testInput(m)
	refVals, err := m.RunF32(in)
	if err != nil {
		t.Fatal(err)
	}
	ref := refVals[m.Graph.Output()]

	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	res, err := Run(m.Graph, plan, in, runCfg(m, partition.ProcessorFriendly(), true))
	if err != nil {
		t.Fatal(err)
	}
	if argmax(res.Output) != argmax(ref) {
		t.Fatal("μLayer inference changed the predicted class")
	}
	if d := res.Output.MaxAbsDiff(ref); d > 0.15 {
		t.Fatalf("cooperative quantized output error %v vs F32", d)
	}
}

func TestMechanismLatencyOrdering(t *testing.T) {
	// Figure 16's headline: μLayer < layer-to-processor ≤ best
	// single-processor, on both SoCs, for the full-size spec models.
	for _, s := range soc.All() {
		pred := profile.Build(s.CPU, s.GPU)
		for _, build := range []func(models.Config) (*models.Model, error){models.VGG16, models.GoogLeNet, models.AlexNet} {
			m, err := build(models.Config{})
			if err != nil {
				t.Fatal(err)
			}
			run := func(o partition.Options, pipe partition.Pipeline) time.Duration {
				plan, err := partition.Build(m.Graph, o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(m.Graph, plan, nil, Config{SoC: s, Pipe: pipe, AsyncIssue: true, ZeroCopy: true})
				if err != nil {
					t.Fatal(err)
				}
				return res.Report.Latency
			}
			mu := run(partition.MuLayer(s, pred), partition.ProcessorFriendly())
			l2p := run(partition.LayerToProcessor(s, pred), partition.Uniform(tensor.QUInt8))
			cpuQ := run(partition.SingleProcessor(s, pred, device.CPU, tensor.QUInt8), partition.Uniform(tensor.QUInt8))
			if mu >= l2p {
				t.Errorf("%s/%s: μLayer %v !< layer-to-proc %v", s.Name, m.Name, mu, l2p)
			}
			// The layer-to-processor mechanism can never lose to the
			// single-CPU QUInt8 plan it subsumes.
			if l2p > cpuQ+cpuQ/100 {
				t.Errorf("%s/%s: layer-to-proc %v worse than single-CPU %v", s.Name, m.Name, l2p, cpuQ)
			}
		}
	}
}

func TestCostOnlyMatchesNumericTiming(t *testing.T) {
	m := smallModel(t, models.SqueezeNetV11)
	in := testInput(m)
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	a, err := Run(m.Graph, plan, in, runCfg(m, partition.ProcessorFriendly(), true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m.Graph, plan, nil, runCfg(m, partition.ProcessorFriendly(), false))
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.Latency != b.Report.Latency {
		t.Fatalf("numeric %v vs cost-only %v simulated latency", a.Report.Latency, b.Report.Latency)
	}
	if b.Output != nil {
		t.Fatal("cost-only run must not produce an output tensor")
	}
	if a.Output == nil {
		t.Fatal("numeric run must produce an output tensor")
	}
}

func TestAsyncIssueHidesDispatch(t *testing.T) {
	m, _ := models.VGG16(models.Config{})
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	base := Config{SoC: testSoC, Pipe: partition.ProcessorFriendly(), AsyncIssue: true, ZeroCopy: true}
	on, err := Run(m.Graph, plan, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	base.AsyncIssue = false
	off, err := Run(m.Graph, plan, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if off.Report.Latency <= on.Report.Latency {
		t.Fatalf("blocking issue %v must be slower than async %v", off.Report.Latency, on.Report.Latency)
	}
}

func TestZeroCopyBeatsCopies(t *testing.T) {
	m, _ := models.GoogLeNet(models.Config{})
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	base := Config{SoC: testSoC, Pipe: partition.ProcessorFriendly(), AsyncIssue: true, ZeroCopy: true}
	on, err := Run(m.Graph, plan, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	base.ZeroCopy = false
	off, err := Run(m.Graph, plan, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if off.Report.Latency <= on.Report.Latency {
		t.Fatalf("copy-based sync %v must be slower than zero-copy %v", off.Report.Latency, on.Report.Latency)
	}
}

func TestBranchDistributionHelpsGoogLeNet(t *testing.T) {
	m, _ := models.GoogLeNet(models.Config{})
	pred := testPred
	with := buildPlan(t, m, partition.MuLayer(testSoC, pred))
	without := buildPlan(t, m, partition.ChannelDistProcQuant(testSoC, pred))
	cfg := Config{SoC: testSoC, Pipe: partition.ProcessorFriendly(), AsyncIssue: true, ZeroCopy: true}
	a, err := Run(m.Graph, with, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m.Graph, without, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Branch distribution is applied per group only when the collected
	// profiles say it wins, so the full system can never lose to the
	// no-branch configuration.
	if a.Report.Latency > b.Report.Latency {
		t.Fatalf("branch distribution %v must not lose to channel-split-everywhere %v on GoogLeNet", a.Report.Latency, b.Report.Latency)
	}
}

func TestTimelineInvariants(t *testing.T) {
	m, _ := models.GoogLeNet(models.Config{})
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	res, err := Run(m.Graph, plan, nil, Config{SoC: testSoC, Pipe: partition.ProcessorFriendly(), AsyncIssue: true, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Timeline.Validate(); err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Latency < r.CPUBusy || r.Latency < r.GPUBusy {
		t.Fatal("makespan below a processor's busy time")
	}
	if r.CPUBusy == 0 || r.GPUBusy == 0 {
		t.Fatal("μLayer must use both processors")
	}
	if r.DynamicJ <= 0 || r.DRAMJ <= 0 || r.StaticJ <= 0 {
		t.Fatal("energy components must be positive")
	}
	if r.KernelLaunches < m.Graph.Len()-1 {
		t.Fatalf("launches %d too few", r.KernelLaunches)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := smallModel(t, models.LeNet5)
	in := testInput(m)
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	a, _ := Run(m.Graph, plan, in, runCfg(m, partition.ProcessorFriendly(), true))
	b, _ := Run(m.Graph, plan, in, runCfg(m, partition.ProcessorFriendly(), true))
	if a.Report.Latency != b.Report.Latency || a.Report.TotalJ() != b.Report.TotalJ() {
		t.Fatal("simulation must be deterministic")
	}
	if a.Output.MaxAbsDiff(b.Output) != 0 {
		t.Fatal("numeric output must be deterministic")
	}
}

func TestRunRejectsBadPlans(t *testing.T) {
	m := smallModel(t, models.LeNet5)
	in := testInput(m)
	// Empty plan misses every node.
	if _, err := Run(m.Graph, &partition.Plan{}, in, runCfg(m, partition.ProcessorFriendly(), true)); err == nil {
		t.Fatal("empty plan must be rejected")
	}
	// Duplicate step.
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	dup := *plan
	dup.Steps = append(dup.Steps, plan.Steps[0])
	if _, err := Run(m.Graph, &dup, in, runCfg(m, partition.ProcessorFriendly(), true)); err == nil {
		t.Fatal("duplicate coverage must be rejected")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	m := smallModel(t, models.LeNet5)
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	cfg := runCfg(m, partition.ProcessorFriendly(), true)
	if _, err := Run(m.Graph, plan, nil, cfg); err == nil {
		t.Fatal("numeric mode without input must fail")
	}
	wrong := tensor.New(tensor.Shape{N: 1, C: 3, H: 8, W: 8})
	if _, err := Run(m.Graph, plan, wrong, cfg); err == nil {
		t.Fatal("wrong input shape must fail")
	}
	if _, err := Run(m.Graph, plan, wrong, Config{}); err == nil {
		t.Fatal("missing SoC must fail")
	}
}

func TestF32AndF16PipelinesNumeric(t *testing.T) {
	m := smallModel(t, models.LeNet5)
	in := testInput(m)
	refVals, _ := m.RunF32(in)
	ref := refVals[m.Graph.Output()]
	for _, dt := range []tensor.DataType{tensor.F32, tensor.F16} {
		plan := buildPlan(t, m, partition.SingleProcessor(testSoC, testPred, device.GPU, dt))
		res, err := Run(m.Graph, plan, in, runCfg(m, partition.Uniform(dt), true))
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-6
		if dt == tensor.F16 {
			tol = 0.01
		}
		if d := res.Output.MaxAbsDiff(ref); d > tol {
			t.Fatalf("%v pipeline error %v", dt, d)
		}
	}
}

func TestGraphNodeCoverageHelper(t *testing.T) {
	// Ensure plan coverage uses graph node IDs consistently.
	m := smallModel(t, models.LeNet5)
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	cover := plan.Covered()
	for id := range cover {
		if int(id) <= 0 || int(id) >= m.Graph.Len() {
			t.Fatalf("bogus node id %d", id)
		}
	}
	_ = graph.NodeID(0)
}

func TestResNetEndToEndMuLayer(t *testing.T) {
	// Residual networks exercise the Add layer through the cooperative
	// executor: channel-split residual sums, mixed-processor operand
	// synchronization, and argmax preservation.
	m := smallModel(t, models.ResNet18)
	in := testInput(m)
	refVals, err := m.RunF32(in)
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	res, err := Run(m.Graph, plan, in, runCfg(m, partition.ProcessorFriendly(), true))
	if err != nil {
		t.Fatal(err)
	}
	if argmax(res.Output) != argmax(refVals[m.Graph.Output()]) {
		t.Fatal("residual network inference changed the predicted class")
	}
	l2p := buildPlan(t, m, partition.LayerToProcessor(testSoC, testPred))
	base, err := Run(m.Graph, l2p, nil, Config{SoC: testSoC, Pipe: partition.Uniform(tensor.QUInt8), AsyncIssue: true, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	mu, err := Run(m.Graph, plan, nil, Config{SoC: testSoC, Pipe: partition.ProcessorFriendly(), AsyncIssue: true, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	if mu.Report.Latency >= base.Report.Latency {
		t.Fatalf("μLayer %v must beat layer-to-processor %v on ResNet-18", mu.Report.Latency, base.Report.Latency)
	}
}
