package exec

import (
	"context"
	"errors"
	"sort"
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// mechanisms returns the planner presets of every execution mechanism on
// s, the single-processor ones at data type dt.
func mechanisms(s *soc.SoC, pred *profile.Predictor, dt tensor.DataType) map[string]partition.Options {
	o := map[string]partition.Options{
		"cpu":    partition.SingleProcessor(s, pred, device.CPU, dt),
		"gpu":    partition.SingleProcessor(s, pred, device.GPU, dt),
		"l2p":    partition.LayerToProcessor(s, pred),
		"chdist": partition.ChannelDistOnly(s, pred),
		"pquant": partition.ChannelDistProcQuant(s, pred),
		"mul":    partition.MuLayer(s, pred),
	}
	if s.NPU != nil {
		o["npu"] = partition.NPUOnly(s, pred)
		o["mul+npu"] = partition.MuLayerNPU(s, pred)
	}
	return o
}

// callOrder lists plan's nodes in numeric call order, walked here from
// the plan itself rather than read from a layout.
func callOrder(plan *partition.Plan) []graph.NodeID {
	var order []graph.NodeID
	for _, st := range plan.Steps {
		if st.Layer != nil {
			order = append(order, st.Layer.Node)
			continue
		}
		for _, br := range st.Branch.Group.Branches {
			order = append(order, br...)
		}
	}
	return order
}

// checkLayout verifies a layout against its plan: from the call that
// writes each output until the last call that reads it (the end of the run
// for the graph output), no other call writes any of its bytes — so no two
// outputs with overlapping lifetimes share bytes, and no node writes over
// its own inputs. The arena must hold the peak set of live outputs and be
// no larger than all outputs together. It returns the peak live bytes.
func checkLayout(t *testing.T, name string, g *graph.Graph, plan *partition.Plan, l *Layout) int64 {
	t.Helper()
	order := append([]graph.NodeID{g.Input()}, callOrder(plan)...)
	at := make(map[graph.NodeID]int, len(order))
	for i, id := range order {
		at[id] = i
	}
	end := make(map[graph.NodeID]int, len(order))
	for i, id := range order {
		end[id] = max(end[id], i)
		for _, in := range g.Node(id).Inputs {
			end[in] = max(end[in], i)
		}
	}
	end[g.Output()] = len(order)
	overlap := func(a, b graph.NodeID) bool {
		return l.off[a] < l.off[b]+l.shapes[b].Elems() && l.off[b] < l.off[a]+l.shapes[a].Elems()
	}
	var sum, peak int64
	for _, id := range order {
		sum += int64(l.shapes[id].Elems())
		for _, w := range order[at[id]+1 : min(end[id]+1, len(order))] {
			if overlap(id, w) {
				t.Fatalf("%s: node %d's output is live until call %d, but call %d (node %d) writes over it",
					name, id, end[id], at[w], w)
			}
		}
	}
	for i := range order {
		var live int64
		for _, id := range order {
			if at[id] <= i && i <= end[id] {
				live += int64(l.shapes[id].Elems())
			}
		}
		peak = max(peak, live)
	}
	if got := int64(l.size); got < peak || got > sum {
		t.Fatalf("%s: arena of %d elements, want within [peak live %d, all outputs %d]", name, got, peak, sum)
	}
	return peak * l.storage.Size()
}

// TestLayoutSoundOnZoo checks the layout of every zoo model's plan under
// every mechanism on every SoC class, for each storage type.
func TestLayoutSoundOnZoo(t *testing.T) {
	names := make([]string, 0, len(soc.Classes))
	for n := range soc.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, class := range names {
		s := soc.Classes[class]()
		pred := profile.Build(s.Processors()...)
		for model, build := range models.Zoo {
			m, err := build(models.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, dt := range tensor.AllDataTypes {
				for mech, o := range mechanisms(s, pred, dt) {
					plan := buildPlan(t, m, o)
					l, err := NewLayout(m.Graph, plan, dt)
					if err != nil {
						t.Fatalf("%s %s %s: %v", class, model, mech, err)
					}
					checkLayout(t, class+"/"+model+"/"+mech+"/"+dt.String(), m.Graph, plan, l)
					if o.Pipe.Storage != dt {
						continue
					}
					res, err := RunLayout(l, []FusedItem{{Rows: 1}}, Config{SoC: s, Pipe: o.Pipe})
					if err != nil {
						t.Fatalf("%s %s %s: %v", class, model, mech, err)
					}
					if n := len(res.Timeline.Spans()); n != l.spans {
						t.Fatalf("%s %s %s %v: run booked %d kernels, layout counted %d", class, model, mech, dt, n, l.spans)
					}
				}
			}
		}
	}

	// The benchmarked configuration: the reduced GoogLeNet of perfbench's
	// infer-coop workload under μLayer on the Exynos 7420.
	m, err := models.GoogLeNet(models.Config{InputHW: 112, WidthScale: 0.5, NoSoftmax: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	l, err := NewLayout(m.Graph, plan, tensor.QUInt8)
	if err != nil {
		t.Fatal(err)
	}
	peak := checkLayout(t, "infer-coop", m.Graph, plan, l)
	var all int64
	for _, s := range l.shapes {
		all += int64(s.Elems())
	}
	t.Logf("infer-coop: %d nodes, %d steps, %d kernels; arena %d B, peak live %d B, all outputs %d B",
		m.Graph.Len(), len(plan.Steps), l.spans, int64(l.size)*l.storage.Size(), peak, all*l.storage.Size())
}

// TestLayoutRejectsMisorderedPlan: a plan that runs a node before its
// input is a returned error, not a read of another node's bytes.
func TestLayoutRejectsMisorderedPlan(t *testing.T) {
	m := smallModel(t, models.LeNet5)
	plan := buildPlan(t, m, partition.MuLayer(testSoC, testPred))
	swapped := *plan
	swapped.Steps = append([]partition.Step(nil), plan.Steps...)
	swapped.Steps[0], swapped.Steps[1] = swapped.Steps[1], swapped.Steps[0]
	if _, err := NewLayout(m.Graph, &swapped, tensor.QUInt8); err == nil {
		t.Fatal("a plan running a node before its input must be rejected")
	}
	withInput := *plan
	withInput.Steps = append([]partition.Step{{Layer: &partition.LayerStep{Node: m.Graph.Input(), P: 1}}}, plan.Steps...)
	if _, err := NewLayout(m.Graph, &withInput, tensor.QUInt8); err == nil {
		t.Fatal("a plan running the input node must be rejected")
	}
	if _, err := RunLayout(mustLayout(t, m, plan, tensor.F16), []FusedItem{{}}, runCfg(m, partition.ProcessorFriendly(), false)); err == nil {
		t.Fatal("a layout for another storage type must be rejected")
	}
}

func mustLayout(t *testing.T, m *models.Model, plan *partition.Plan, dt tensor.DataType) *Layout {
	t.Helper()
	l, err := NewLayout(m.Graph, plan, dt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFusedCancelRecyclesArenas cancels one member of a fused batch
// mid-run: its batchmates' outputs stay bit-exact, and runs on the arenas
// the batch returned to the pool match too.
func TestFusedCancelRecyclesArenas(t *testing.T) {
	m := smallModel(t, models.GoogLeNet)
	o := partition.MuLayer(testSoC, testPred)
	plan := buildPlan(t, m, o)
	lay := mustLayout(t, m, plan, o.Pipe.Storage)
	cfg := runCfg(m, o.Pipe, true)
	inputs := make([]*tensor.Tensor, 3)
	want := make([]*tensor.Tensor, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.New(m.InputShape)
		inputs[i].FillRandom(uint64(300+i), 1)
		res, err := RunLayout(lay, []FusedItem{{Input: inputs[i]}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Items[0].Output
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel member 1 at the fifth booked kernel: its arena goes back to
	// the pool while its batchmates keep computing.
	kernels := 0
	c := cfg
	c.TraceHook = func(TraceEvent) {
		if kernels++; kernels == 5 {
			cancel()
		}
	}
	items := []FusedItem{{Input: inputs[0]}, {Input: inputs[1], Ctx: ctx}, {Input: inputs[2]}}
	res, err := RunLayout(lay, items, c)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Items[1].Err, context.Canceled) || res.Items[1].Output != nil {
		t.Fatalf("cancelled member: err %v, output %v", res.Items[1].Err, res.Items[1].Output != nil)
	}
	for _, i := range []int{0, 2} {
		if ir := res.Items[i]; ir.Err != nil || ir.Output.MaxAbsDiff(want[i]) != 0 {
			t.Fatalf("member %d beside a cancelled one: err %v, output differs", i, ir.Err)
		}
	}
	// The next runs take the recycled arenas, the cancelled one's included.
	items = []FusedItem{{Input: inputs[2]}, {Input: inputs[1]}, {Input: inputs[0]}}
	res, err = RunLayout(lay, items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range res.Items {
		if d := ir.Output.MaxAbsDiff(want[2-i]); ir.Err != nil || d != 0 {
			t.Fatalf("recycled arena, member %d: err %v, differs by %v", i, ir.Err, d)
		}
	}
}

// TestWarmRunLayoutAllocs bounds a warm numeric run's allocations: with
// the activations in a pooled arena, what is left is the runner, the
// timeline, the result and the float32 output, none of them per node.
// The bound is the count measured when the arena replaced per-node
// outputs (34) plus a margin; GoogLeNet here has 83 nodes.
func TestWarmRunLayoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled arenas at random")
	}
	const bound = 40
	m := smallModel(t, models.GoogLeNet)
	o := partition.MuLayer(testSoC, testPred)
	lay := mustLayout(t, m, buildPlan(t, m, o), o.Pipe.Storage)
	cfg := runCfg(m, o.Pipe, true)
	items := []FusedItem{{Input: testInput(m)}}
	run := func() {
		if _, err := RunLayout(lay, items, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a > bound {
		t.Fatalf("warm numeric run allocates %v times, bound %d", a, bound)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool
