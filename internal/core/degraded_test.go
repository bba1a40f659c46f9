package core

import (
	"testing"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/tensor"
)

// TestDegradedPlanShape: losing one processor of a cooperative mechanism
// must force every layer onto the survivor — no splits, no branch
// distribution.
func TestDegradedPlanShape(t *testing.T) {
	rt := newRT(t)
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		down  device.Set
		wantP float64
	}{
		{device.GPU.Bit(), 1}, // survivor CPU: every step p=1
		{device.CPU.Bit(), 0}, // survivor GPU: every step p=0
	} {
		plan, err := rt.Plan(m, RunConfig{Mechanism: MechMuLayer, Unhealthy: tc.down})
		if err != nil {
			t.Fatalf("down=%v: %v", tc.down, err)
		}
		if plan.BranchCount() != 0 {
			t.Fatalf("down=%v: degraded plan still branch-distributes", tc.down)
		}
		if plan.SplitCount() != 0 {
			t.Fatalf("down=%v: degraded plan still splits", tc.down)
		}
		for _, s := range plan.Steps {
			if s.Layer == nil || s.Layer.P != tc.wantP || s.Layer.PNPU != 0 {
				t.Fatalf("down=%v: step %+v, want pure p=%v", tc.down, s.Layer, tc.wantP)
			}
		}
	}
}

// TestDegradedUnservable: a mechanism whose only processor is unhealthy
// must fail at plan time with a clear error, not produce a bogus plan.
func TestDegradedUnservable(t *testing.T) {
	rt := newRT(t)
	m, _ := models.LeNet5(models.Config{})
	cases := []RunConfig{
		{Mechanism: MechCPUOnly, Unhealthy: device.CPU.Bit()},
		{Mechanism: MechGPUOnly, Unhealthy: device.GPU.Bit()},
		{Mechanism: MechMuLayer, Unhealthy: device.CPU.Bit() | device.GPU.Bit()},
		{Mechanism: MechLayerToProcessor, Unhealthy: device.CPU.Bit() | device.GPU.Bit()},
	}
	for _, rc := range cases {
		if _, err := rt.Plan(m, rc); err == nil {
			t.Fatalf("%v down=%v: want error", rc.Mechanism, rc.Unhealthy)
		}
	}
	// The NPU baseline dies with its NPU.
	if _, err := rt.Plan(m, RunConfig{Mechanism: MechNPUOnly, Unhealthy: device.NPU.Bit()}); err == nil {
		t.Fatal("NPU-only with NPU down: want error")
	}
	// Losing the NPU under three-way cooperation degrades to two-way.
	if _, err := rt.Plan(m, RunConfig{Mechanism: MechMuLayer, Unhealthy: device.NPU.Bit()}); err != nil {
		t.Fatalf("mulayer with NPU down must still plan: %v", err)
	}
}

// forcedPlan builds the p=const golden plan by hand: every splittable
// layer at p, non-splittable layers on the plan's surviving processor.
func forcedPlan(t *testing.T, m *models.Model, p float64) *partition.Plan {
	t.Helper()
	order, err := m.Graph.Toposort()
	if err != nil {
		t.Fatal(err)
	}
	var plan partition.Plan
	for _, id := range order {
		if m.Graph.Node(id).Layer.Kind() == nn.OpInput {
			continue
		}
		plan.Steps = append(plan.Steps, partition.Step{Layer: &partition.LayerStep{Node: id, P: p}})
	}
	return &plan
}

// TestDegradedOutputsBitIdentical is the acceptance check: a degraded
// cooperative run's numeric output is bit-identical to the corresponding
// single-processor golden. GPU-down degenerates to the CPU's QUInt8
// kernels, which compute exactly what a hand-built p=1 plan computes;
// CPU-down degenerates to the converted-GPU pipeline of a hand-built p=0
// plan. Both goldens run through exec directly, bypassing the partitioner.
func TestDegradedOutputsBitIdentical(t *testing.T) {
	rt := newRT(t)
	m, err := models.LeNet5(models.Config{Numeric: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(m.InputShape)
	in.FillRandom(2, 1)
	if err := m.Calibrate([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}

	golden := func(p float64) *tensor.Tensor {
		cfg := exec.Config{
			SoC:         rt.SoC(),
			Pipe:        partition.ProcessorFriendly(),
			Numeric:     true,
			InputParams: m.InputParams,
			AsyncIssue:  true,
			ZeroCopy:    true,
		}
		res, err := exec.Run(m.Graph, forcedPlan(t, m, p), in, cfg)
		if err != nil {
			t.Fatalf("golden p=%v: %v", p, err)
		}
		return res.Output
	}

	for _, tc := range []struct {
		name string
		down device.Set
		p    float64
	}{
		{"gpu-down-p1", device.GPU.Bit(), 1},
		{"cpu-down-p0", device.CPU.Bit(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := rt.Run(m, in, RunConfig{Mechanism: MechMuLayer, Numeric: true, Unhealthy: tc.down})
			if err != nil {
				t.Fatal(err)
			}
			want := golden(tc.p)
			if res.Output.Shape != want.Shape {
				t.Fatalf("shape %v vs %v", res.Output.Shape, want.Shape)
			}
			for i, v := range res.Output.Data {
				if v != want.Data[i] {
					t.Fatalf("element %d: degraded %v != golden %v", i, v, want.Data[i])
				}
			}
		})
	}
}

// TestDegradedPlanCacheKeys: degraded and healthy plans must occupy
// distinct cache entries — the healthy-processor mask is part of the key.
func TestDegradedPlanCacheKeys(t *testing.T) {
	rt := newRT(t)
	c := NewPlanCache(rt)
	m, _ := models.SqueezeNetV11(models.Config{})
	healthy, err := c.Plan(m, RunConfig{Mechanism: MechMuLayer})
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := c.Plan(m, RunConfig{Mechanism: MechMuLayer, Unhealthy: device.GPU.Bit()})
	if err != nil {
		t.Fatal(err)
	}
	if healthy == degraded {
		t.Fatal("degraded plan aliases the healthy entry")
	}
	if got := c.Stats().Plans; got != 2 {
		t.Fatalf("cache holds %d plans, want 2", got)
	}
	// Repeat lookups hit.
	if p2, _ := c.Plan(m, RunConfig{Mechanism: MechMuLayer, Unhealthy: device.GPU.Bit()}); p2 != degraded {
		t.Fatal("degraded entry not reused")
	}
	// Degraded estimates work and differ from healthy ones (single-processor
	// execution is slower than cooperative execution on this model).
	h, err := c.Estimate(m, RunConfig{Mechanism: MechMuLayer}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Estimate(m, RunConfig{Mechanism: MechMuLayer, Unhealthy: device.GPU.Bit()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= h {
		t.Fatalf("degraded estimate %v not above healthy %v", d, h)
	}
}

// TestExecOptsFaultHook: a hook installed via RunBatchPlanOpts reaches the
// executor; the zero-opts path stays hook-free.
func TestExecOptsFaultHook(t *testing.T) {
	rt := newRT(t)
	m, err := models.LeNet5(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	plan, err := rt.Plan(m, rc)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	opts := ExecOpts{Faults: func(p *device.Processor, kernel string, d time.Duration) (time.Duration, error) {
		calls++
		return d, nil
	}}
	if _, err := rt.RunBatchPlanOpts(m, plan, []exec.FusedItem{{Rows: 1}}, rc, opts); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("fault hook never consulted")
	}
	// The hook-free delegate still works and does not invent faults.
	if _, err := rt.RunBatchPlan(m, plan, []exec.FusedItem{{Rows: 1}}, rc); err != nil {
		t.Fatal(err)
	}
}
