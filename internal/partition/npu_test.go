package partition

import (
	"testing"
	"testing/quick"

	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
)

var (
	npuSoC  = soc.Exynos7420NPU()
	npuPred = profile.Build(npuSoC.Processors()...)
)

func TestChannelsPartition(t *testing.T) {
	f := func(cs, ns uint8, chs uint8) bool {
		splitCh := int(chs%200) + 1
		c := float64(cs%5) / 4
		n := float64(ns%5) / 4
		if c+n > 1 {
			return true
		}
		ch := Channels(c, n, splitCh)
		for _, k := range ch {
			if k < 0 {
				return false
			}
		}
		if ch[ProcCPU]+ch[ProcGPU]+ch[ProcNPU] != splitCh {
			return false
		}
		// A two-processor split keeps at least one channel on each side.
		if n == 0 && c > 0 && c < 1 && splitCh >= 2 {
			return ch[ProcCPU] >= 1 && ch[ProcGPU] >= 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelsWholeLayer(t *testing.T) {
	for _, tc := range []struct {
		p, pn float64
		c     int
		want  [3]int
	}{
		{1, 0, 64, [3]int{64, 0, 0}},
		{0, 0, 64, [3]int{0, 64, 0}},
		{0, 1, 64, [3]int{0, 0, 64}},
		{0.5, 0, 1, [3]int{1, 0, 0}},     // one channel cannot split
		{0.25, 0.25, 1, [3]int{1, 0, 0}}, // nor three ways
		{1, 0, 0, [3]int{1, 0, 0}},       // concat: a whole layer on the CPU
		{0, 0, 0, [3]int{0, 1, 0}},       // ... or on the GPU
		{0.75, 0, 2, [3]int{1, 1, 0}},    // the two-way clamp
		{0.25, 0.25, 8, [3]int{2, 4, 2}},
	} {
		if got := Channels(tc.p, tc.pn, tc.c); got != tc.want {
			t.Errorf("Channels(%v, %v, %d) = %v, want %v", tc.p, tc.pn, tc.c, got, tc.want)
		}
	}
}

func TestThreeWayGridCoversSimplex(t *testing.T) {
	o := MuLayerNPU(npuSoC, npuPred)
	const splitCh = 64
	seen := map[[3]int]bool{}
	n := 0
	o.candidates(nn.OpConv, splitCh, func(p, pn float64) {
		n++
		ch := Channels(p, pn, splitCh)
		if ch[ProcCPU]+ch[ProcGPU]+ch[ProcNPU] != splitCh {
			t.Fatalf("candidate %v does not cover the layer", ch)
		}
		if seen[ch] {
			t.Fatalf("duplicate candidate %v", ch)
		}
		seen[ch] = true
	})
	if n != 15 { // C(6,2) compositions of 4 into 3 parts
		t.Fatalf("grid size %d, want 15", n)
	}
	// Degenerate single-processor tuples must be present.
	for _, want := range [][3]int{{splitCh, 0, 0}, {0, splitCh, 0}, {0, 0, splitCh}} {
		if !seen[want] {
			t.Fatalf("missing candidate %v", want)
		}
	}
}

func TestMuLayerNPUPlanUsesThreeProcessors(t *testing.T) {
	m := mustModel(t, models.VGG16)
	plan, err := Build(m.Graph, MuLayerNPU(npuSoC, npuPred))
	if err != nil {
		t.Fatal(err)
	}
	coverageOK(t, m, plan)
	threeWay := 0
	for _, s := range plan.Steps {
		if s.Layer == nil {
			continue
		}
		if s.Layer.P > 0 && s.Layer.PNPU > 0 && s.Layer.P+s.Layer.PNPU < 1 {
			threeWay++
		}
	}
	if threeWay < 5 {
		t.Fatalf("VGG-16's large convolutions should use all three processors, got %d three-way steps", threeWay)
	}
}

func TestNPUOnlyPlan(t *testing.T) {
	m := mustModel(t, models.GoogLeNet)
	plan, err := Build(m.Graph, NPUOnly(npuSoC, npuPred))
	if err != nil {
		t.Fatal(err)
	}
	coverageOK(t, m, plan)
	for _, s := range plan.Steps {
		if s.Layer == nil || s.Layer.PNPU != 1 {
			t.Fatalf("NPU-only plan has non-NPU step %+v", s)
		}
	}
}

func TestNPUOnlyRequiresNPU(t *testing.T) {
	m := mustModel(t, models.LeNet5)
	if _, err := Build(m.Graph, NPUOnly(testSoC, testPred)); err == nil {
		t.Fatal("NPU-only on an NPU-less SoC must fail")
	}
}

func TestMuLayerNPUPredictedBeatsTwoWay(t *testing.T) {
	for _, build := range []func(models.Config) (*models.Model, error){models.VGG16, models.GoogLeNet} {
		m := mustModel(t, build)
		three, err := Build(m.Graph, MuLayerNPU(npuSoC, npuPred))
		if err != nil {
			t.Fatal(err)
		}
		two, err := Build(m.Graph, MuLayer(npuSoC, npuPred))
		if err != nil {
			t.Fatal(err)
		}
		if three.Predicted >= two.Predicted {
			t.Errorf("%s: three-way predicted %v !< two-way %v", m.Name, three.Predicted, two.Predicted)
		}
	}
}

func TestUnsplittableLayerPrefersNPUForBigIntegerWork(t *testing.T) {
	o := MuLayerNPU(npuSoC, npuPred)
	// A large conv in QUInt8 scored as a layer that cannot split: the
	// NPU's integer engine should win the single-processor comparison.
	m := mustModel(t, models.VGG16)
	shapes, _ := m.Graph.InferShapes()
	var found bool
	for i := 0; i < m.Graph.Len(); i++ {
		n := m.Graph.Node(graph.NodeID(i))
		if n.Layer.Name() != "conv3_1" {
			continue
		}
		found = true
		c := n.Layer.Cost(m.Graph.InputShapes(n.ID, shapes))
		cpu, npu, _ := o.bestSplit(n.Layer.Kind(), c, 1)
		if cpu != 0 || npu != 1 {
			t.Fatalf("conv3_1 single-proc choice cpu=%v npu=%v, want the NPU", cpu, npu)
		}
	}
	if !found {
		t.Fatal("conv3_1 not found")
	}
}
