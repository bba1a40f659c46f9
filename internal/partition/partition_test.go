package partition

import (
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

var (
	testSoC  = soc.Exynos7420()
	testPred = profile.Build(testSoC.CPU, testSoC.GPU)
)

func mustModel(t *testing.T, build func(models.Config) (*models.Model, error)) *models.Model {
	t.Helper()
	m, err := build(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func coverageOK(t *testing.T, m *models.Model, p *Plan) {
	t.Helper()
	cover := p.Covered()
	for i := 0; i < m.Graph.Len(); i++ {
		id := graph.NodeID(i)
		if m.Graph.Node(id).Layer.Kind() == nn.OpInput {
			if cover[id] != 0 {
				t.Fatalf("input node in plan")
			}
			continue
		}
		if cover[id] != 1 {
			t.Fatalf("node %d (%s) covered %d times", id, m.Graph.Node(id).Layer.Name(), cover[id])
		}
	}
}

func TestSingleProcessorPlans(t *testing.T) {
	m := mustModel(t, models.VGG16)
	for _, proc := range []device.Type{device.CPU, device.GPU} {
		plan, err := Build(m.Graph, SingleProcessor(testSoC, testPred, proc, tensor.F32))
		if err != nil {
			t.Fatal(err)
		}
		coverageOK(t, m, plan)
		wantP := 1.0
		if proc == device.GPU {
			wantP = 0
		}
		for _, s := range plan.Steps {
			if s.Layer == nil || s.Layer.P != wantP {
				t.Fatalf("single-%v plan contains step %+v", proc, s)
			}
		}
	}
}

func TestLayerToProcessorNeverSplits(t *testing.T) {
	m := mustModel(t, models.VGG16)
	plan, err := Build(m.Graph, LayerToProcessor(testSoC, testPred))
	if err != nil {
		t.Fatal(err)
	}
	coverageOK(t, m, plan)
	if plan.SplitCount() != 0 {
		t.Fatal("layer-to-processor must not split layers")
	}
	// With uniform QUInt8, the GPU's weak integer pipeline (Figure 8)
	// makes the CPU the per-layer winner throughout — the mechanism is
	// bounded by single-processor performance, which is the paper's
	// motivating observation (§1 finding 1).
	for _, s := range plan.Steps {
		if s.Layer == nil || (s.Layer.P != 0 && s.Layer.P != 1) {
			t.Fatalf("unexpected step %+v", s)
		}
	}
}

func TestMuLayerSplitsLargeLayers(t *testing.T) {
	m := mustModel(t, models.VGG16)
	plan, err := Build(m.Graph, ChannelDistProcQuant(testSoC, testPred))
	if err != nil {
		t.Fatal(err)
	}
	coverageOK(t, m, plan)
	if plan.SplitCount() < 8 {
		t.Fatalf("VGG-16's big convolutions should be split; only %d splits", plan.SplitCount())
	}
	for _, s := range plan.Steps {
		if s.Layer != nil && s.Layer.P > 0 && s.Layer.P < 1 {
			found := false
			for _, g := range DefaultGrid {
				if s.Layer.P == g {
					found = true
				}
			}
			if !found {
				t.Fatalf("split ratio %v not on the grid", s.Layer.P)
			}
		}
	}
}

func TestMuLayerPredictedBeatsBaselines(t *testing.T) {
	// The planner's own estimates must rank μLayer ahead of both
	// single-processor plans and the layer-to-processor plan.
	for _, build := range []func(models.Config) (*models.Model, error){models.VGG16, models.AlexNet, models.GoogLeNet} {
		m := mustModel(t, build)
		mu, err := Build(m.Graph, MuLayer(testSoC, testPred))
		if err != nil {
			t.Fatal(err)
		}
		l2p, err := Build(m.Graph, LayerToProcessor(testSoC, testPred))
		if err != nil {
			t.Fatal(err)
		}
		if mu.Predicted >= l2p.Predicted {
			t.Errorf("%s: μLayer predicted %v !< layer-to-processor %v", m.Name, mu.Predicted, l2p.Predicted)
		}
	}
}

func TestBranchDistributionOnGoogLeNet(t *testing.T) {
	m := mustModel(t, models.GoogLeNet)
	plan, err := Build(m.Graph, MuLayer(testSoC, testPred))
	if err != nil {
		t.Fatal(err)
	}
	coverageOK(t, m, plan)
	if plan.BranchCount() == 0 {
		t.Fatal("μLayer should branch-distribute at least some inception modules")
	}
	// Branch steps must assign every branch and use both processors when
	// beneficial.
	for _, s := range plan.Steps {
		if s.Branch == nil {
			continue
		}
		if len(s.Branch.Assign) != len(s.Branch.Group.Branches) {
			t.Fatal("assignment arity mismatch")
		}
	}
}

func TestBranchAssignmentIsArgmin(t *testing.T) {
	m := mustModel(t, models.SqueezeNetV11)
	o := MuLayer(testSoC, testPred)
	o.Grid = DefaultGrid
	shapes, _ := m.Graph.InferShapes()
	for _, bg := range m.Graph.BranchGroups() {
		assign, best, eval := o.simBranchSearch(m.Graph, bg, shapes)
		if assign == nil {
			t.Fatal("no assignment")
		}
		if got := eval(assign); got != best {
			t.Fatalf("returned makespan %v != eval of returned assignment %v", best, got)
		}
		// Exhaustively verify no mapping scores better under the same cost
		// formula.
		b := len(bg.Branches)
		cand := make([]device.Type, b)
		for mask := 0; mask < 1<<b; mask++ {
			for i := 0; i < b; i++ {
				cand[i] = device.Type(mask >> i & 1)
			}
			if tt := eval(cand); tt < best {
				t.Fatalf("mask %b beats chosen assignment: %v < %v", mask, tt, best)
			}
		}
	}
}

func TestNonSplittableLayersStayWhole(t *testing.T) {
	m := mustModel(t, models.GoogLeNet)
	plan, err := Build(m.Graph, ChannelDistProcQuant(testSoC, testPred))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Steps {
		if s.Layer == nil {
			continue
		}
		kind := m.Graph.Node(s.Layer.Node).Layer.Kind()
		if (kind == nn.OpConcat || kind == nn.OpSoftmax) && s.Layer.P != 1 && s.Layer.P != 0 {
			t.Fatalf("%v layer split", kind)
		}
	}
}

func TestSplitRatioFallback(t *testing.T) {
	// The μLayer presets span the full 0 ≤ p ≤ 1 ratio range: a layer too
	// small to amortize cooperative synchronization stays on a single
	// processor. The grid-only mode (the literal {0.25,0.5,0.75} of §6's
	// implementation note) force-splits it.
	b := graph.NewBuilder("tiny")
	in := b.Input(tensor.Shape{N: 1, C: 4, H: 4, W: 4})
	c := b.Add(&nn.Conv2D{LayerName: "c", InC: 4, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, in)
	g, err := b.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(g, ChannelDistProcQuant(testSoC, testPred))
	if err != nil {
		t.Fatal(err)
	}
	if plan.SplitCount() != 0 {
		t.Fatal("a microscopic layer must run on one processor under the default preset")
	}
	o := ChannelDistProcQuant(testSoC, testPred)
	o.SingleFallback = false
	plan2, err := Build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.SplitCount() != 1 {
		t.Fatal("grid-only mode must split every splittable layer")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Error("empty options must fail")
	}
	o := Options{SoC: testSoC, Pred: testPred}
	if err := o.Validate(); err == nil {
		t.Error("no processors allowed must fail")
	}
	o.AllowCPU = true
	o.Grid = []float64{1.5}
	if err := o.Validate(); err == nil {
		t.Error("out-of-range grid must fail")
	}
	o.Grid = DefaultGrid
	if err := o.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestPipelineAccessors(t *testing.T) {
	pf := ProcessorFriendly()
	if pf.ComputeType(device.CPU) != tensor.QUInt8 || pf.ComputeType(device.GPU) != tensor.F16 {
		t.Error("processor-friendly compute types")
	}
	if !pf.Converted(device.GPU) || pf.Converted(device.CPU) {
		t.Error("conversion flags")
	}
	if pf.WeightBytes(device.CPU) != 1 || pf.WeightBytes(device.GPU) != 2 {
		t.Error("weight widths: CPU u8, GPU dequantized F16")
	}
	u := Uniform(tensor.F32)
	if u.WeightBytes(device.GPU) != 4 || u.Converted(device.GPU) {
		t.Error("uniform pipeline")
	}
}
