package exec

import (
	"testing"
	"time"

	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/sim"
	"mulayer/internal/soc"
)

// TestStepTimeMatchesPlanner ties the executor's charges to the planner's
// device model: for every layer step of the μLayer plans of the zoo
// models on each modeled SoC, the time the executor books from the step's
// inputs being ready to its merged output must equal
// Pipeline.StepTime, the device-model latency the partitioner scores for
// the same channel counts. Cost-only, one row, asynchronous issue and
// zero-copy memory, the configuration the planner assumes.
func TestStepTimeMatchesPlanner(t *testing.T) {
	zoo := []func(models.Config) (*models.Model, error){
		models.GoogLeNet, models.SqueezeNetV11, models.VGG16,
		models.AlexNet, models.MobileNetV1, models.ResNet18,
	}
	for _, s := range []*soc.SoC{soc.Exynos7420(), soc.Exynos7880(), soc.Exynos7420NPU()} {
		pred := profile.Build(s.Processors()...)
		mechs := []partition.Options{partition.MuLayer(s, pred)}
		if s.NPU != nil {
			mechs = append(mechs, partition.MuLayerNPU(s, pred))
		}
		for _, build := range zoo {
			m, err := build(models.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range mechs {
				checkStepTimes(t, s, m, buildPlan(t, m, o), o.Pipe)
			}
		}
	}
}

func checkStepTimes(t *testing.T, s *soc.SoC, m *models.Model, plan *partition.Plan, pipe partition.Pipeline) {
	t.Helper()
	g := m.Graph
	shapes, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	// With asynchronous issue every kernel of a step starts the moment its
	// inputs are ready, so the earliest kernel start is that moment.
	first := map[graph.NodeID]time.Duration{}
	cfg := Config{SoC: s, Pipe: pipe, AsyncIssue: true, ZeroCopy: true,
		TraceHook: func(ev TraceEvent) {
			if st, ok := first[ev.Node]; !ok || ev.Start < st {
				first[ev.Node] = ev.Start
			}
		}}
	lay, err := NewLayout(g, plan, pipe.Storage)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(lay, cfg, sim.NewTimeline(lay.spans), 0)
	split := 0
	for _, st := range plan.Steps {
		if st.Branch != nil {
			r.runBranch(st.Branch)
			continue
		}
		r.runLayer(st.Layer)
		id := st.Layer.Node
		l := g.Node(id).Layer
		ins := g.InputShapes(id, shapes)
		ch := partition.Channels(st.Layer.P, st.Layer.PNPU, l.SplitChannels(ins))
		// r.ready is read before any consumer's transition sync moves it.
		got := r.ready[id] - first[id]
		if want := pipe.StepTime(s, l.Kind(), l.Cost(ins), ch); got != want {
			t.Fatalf("%s on %s: step %s at %v: executor books %v, planner scores %v",
				m.Name, s.Name, l.Name(), ch, got, want)
		}
		if active := min(ch[0], 1) + min(ch[1], 1) + min(ch[2], 1); active > 1 {
			split++
		}
	}
	if r.failure != nil {
		t.Fatal(r.failure)
	}
	if split == 0 {
		t.Fatalf("%s on %s: the μLayer plan split no layer", m.Name, s.Name)
	}
}

// TestRunCostOnlyAllocs bounds the allocations of a warm cost-only Run of
// GoogLeNet's μLayer plan: the serving tier walks this path for every
// batch, so the shared device-time functions must return values and fixed
// arrays, never per-step slices. The bound is the count measured before
// the planner and the executor shared one device-time model (252).
func TestRunCostOnlyAllocs(t *testing.T) {
	const bound = 252
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	cfg := DefaultConfig(testSoC)
	run := func() {
		if _, err := Run(m.Graph, plan, nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if a := testing.AllocsPerRun(20, run); a > bound {
		t.Fatalf("warm cost-only Run allocates %v times, bound %d", a, bound)
	}
}
