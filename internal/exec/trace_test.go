package exec

import (
	"math"
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
)

// TestTraceHookZeroWhenNil: attaching a hook must observe the execution
// without changing it — the traced report equals the untraced one.
func TestTraceHookZeroWhenNil(t *testing.T) {
	m, plan, cfg := faultModel(t)
	base, err := Run(m.Graph, plan, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	cfg.TraceHook = func(TraceEvent) { events++ }
	traced, err := Run(m.Graph, plan, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Report != base.Report {
		t.Fatalf("trace hook changed the report: %+v vs %+v", traced.Report, base.Report)
	}
	if events != traced.Report.KernelLaunches {
		t.Fatalf("hook saw %d events, report counts %d launches", events, traced.Report.KernelLaunches)
	}
}

// TestTraceHookCoversEveryLayer: a split run emits one event per booked
// kernel — two per split layer with complementary shares — and every
// non-input node appears.
func TestTraceHookCoversEveryLayer(t *testing.T) {
	m, _, cfg := faultModel(t)
	plan := splitPlan(t, m, 0.5)
	var events []TraceEvent
	cfg.TraceHook = func(ev TraceEvent) { events = append(events, ev) }
	res, err := Run(m.Graph, plan, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}

	perNode := map[int][]TraceEvent{}
	for _, ev := range events {
		perNode[int(ev.Node)] = append(perNode[int(ev.Node)], ev)
		if ev.End < ev.Start || ev.End > res.Report.Latency {
			t.Fatalf("event %s interval [%v,%v] outside makespan %v", ev.Label, ev.Start, ev.End, res.Report.Latency)
		}
		if ev.KernelDur <= 0 || ev.KernelDur > ev.End-ev.Start {
			t.Fatalf("event %s kernel dur %v vs booked %v", ev.Label, ev.KernelDur, ev.End-ev.Start)
		}
		if ev.P <= 0 || ev.P > 1 {
			t.Fatalf("event %s share %v out of range", ev.Label, ev.P)
		}
		if ev.Rows != 1 || ev.Proc == nil || ev.Kind == nn.OpInput {
			t.Fatalf("event fields wrong: %+v", ev)
		}
	}
	for _, st := range plan.Steps {
		evs := perNode[int(st.Layer.Node)]
		if len(evs) == 0 {
			t.Fatalf("node %d executed but never traced", st.Layer.Node)
		}
		if st.Layer.P > 0 && st.Layer.P < 1 {
			if len(evs) != 2 {
				t.Fatalf("split node %d emitted %d events, want 2", st.Layer.Node, len(evs))
			}
			if sum := evs[0].P + evs[1].P; math.Abs(sum-1) > 1e-9 {
				t.Fatalf("split shares sum to %v, want 1", sum)
			}
			if evs[0].Proc.Type == evs[1].Proc.Type {
				t.Fatalf("split node %d traced twice on side %v", st.Layer.Node, evs[0].Proc.Type)
			}
		}
	}
}

// TestTraceHookFusedRows: fused runs carry the batch row count on every
// event.
func TestTraceHookFusedRows(t *testing.T) {
	m, plan, cfg := faultModel(t)
	rows := 0
	cfg.TraceHook = func(ev TraceEvent) {
		if rows == 0 {
			rows = ev.Rows
		}
		if ev.Rows != rows {
			t.Fatalf("row count varies across events: %d vs %d", ev.Rows, rows)
		}
	}
	if _, err := RunFused(m.Graph, plan, []FusedItem{{Rows: 3}, {Rows: 2}}, cfg); err != nil {
		t.Fatal(err)
	}
	if rows != 5 {
		t.Fatalf("fused events carry %d rows, want 5", rows)
	}
}

// TestTraceHookThreeWay: a CPU+GPU+NPU layer emits three events whose
// shares sum to one, each on a distinct side.
func TestTraceHookThreeWay(t *testing.T) {
	m := smallModel(t, models.GoogLeNet)
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
		st := &partition.LayerStep{Node: id, P: 1}
		if n.Layer.SplitChannels(m.Graph.InputShapes(id, shapes)) >= 3 {
			st.P, st.PNPU = 0.25, 0.25
		}
		plan.Steps = append(plan.Steps, partition.Step{Layer: st})
	}

	cfg := npuCfg(m, partition.ProcessorFriendly(), false)
	perNode := map[int][]TraceEvent{}
	cfg.TraceHook = func(ev TraceEvent) { perNode[int(ev.Node)] = append(perNode[int(ev.Node)], ev) }
	if _, err := Run(m.Graph, &plan, nil, cfg); err != nil {
		t.Fatal(err)
	}
	threeWay := 0
	for _, st := range plan.Steps {
		if st.Layer.PNPU <= 0 || st.Layer.PNPU >= 1 {
			continue
		}
		evs := perNode[int(st.Layer.Node)]
		if len(evs) != 3 {
			continue // degenerate split (too few channels)
		}
		threeWay++
		sum := 0.0
		sides := map[device.Type]bool{}
		for _, ev := range evs {
			sum += ev.P
			sides[ev.Proc.Type] = true
		}
		if math.Abs(sum-1) > 1e-9 || len(sides) != 3 {
			t.Fatalf("three-way node %d: shares sum %v across %d sides", st.Layer.Node, sum, len(sides))
		}
	}
	if threeWay == 0 {
		t.Fatal("no three-way layer was traced")
	}
}
