package core

import (
	"testing"
	"time"

	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/tensor"
)

func TestRunBatchOfOneMatchesRun(t *testing.T) {
	rt := newRT(t)
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	single, err := rt.Run(m, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := rt.RunBatch(m, []exec.FusedItem{{}}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rows != 1 {
		t.Fatalf("rows %d, want 1", batch.Rows)
	}
	if batch.Report.Latency != single.Report.Latency {
		t.Fatalf("one-row fused batch %v must cost exactly a single run %v", batch.Report.Latency, single.Report.Latency)
	}
}

func TestRunBatchAmortizesFixedCosts(t *testing.T) {
	rt := newRT(t)
	m, err := models.LeNet5(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	single, err := rt.Run(m, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 8
	batch, err := rt.RunBatch(m, []exec.FusedItem{{Rows: rows}}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Rows != rows {
		t.Fatalf("rows %d, want %d", batch.Rows, rows)
	}
	// Fused rows share every kernel launch and weight read, so the batch
	// must be strictly cheaper than sequential runs — and on launch-bound
	// LeNet-5, by a wide margin.
	seq := time.Duration(rows) * single.Report.Latency
	if batch.Report.Latency >= seq {
		t.Fatalf("fused batch of %d (%v) not cheaper than %d sequential runs (%v)", rows, batch.Report.Latency, rows, seq)
	}
	if perRow := batch.Report.Latency / rows; perRow >= single.Report.Latency*2/3 {
		t.Fatalf("per-row cost %v barely below single-run %v; LeNet-5 batching must amortize launch overhead", perRow, single.Report.Latency)
	}
}

func TestRunBatchNumericGuards(t *testing.T) {
	rt := newRT(t)
	rc := RunConfig{Mechanism: MechMuLayer, Numeric: true}

	spec, _ := models.LeNet5(models.Config{})
	if _, err := rt.RunBatch(spec, []exec.FusedItem{{}}, rc); err == nil {
		t.Fatal("spec-only numeric batch must fail")
	}

	m, err := models.LeNet5(models.Config{Numeric: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(m.InputShape)
	in.FillRandom(1, 1)
	if _, err := rt.RunBatch(m, []exec.FusedItem{{Input: in}}, rc); err == nil {
		t.Fatal("uncalibrated quantized numeric batch must fail")
	}
	if err := m.Calibrate([]*tensor.Tensor{in}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunBatch(m, []exec.FusedItem{{Input: in, Rows: 2}}, rc); err == nil {
		t.Fatal("numeric member with Rows > 1 must fail")
	}
	if _, err := rt.RunBatch(m, []exec.FusedItem{{}}, rc); err == nil {
		t.Fatal("numeric member without input must fail")
	}

	// And the happy path is bit-identical to the plain numeric run.
	single, err := rt.Run(m, in, rc)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := rt.RunBatch(m, []exec.FusedItem{{Input: in}, {Input: in}}, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range batch.Items {
		if ir.Err != nil {
			t.Fatalf("member %d: %v", i, ir.Err)
		}
		if d := ir.Output.MaxAbsDiff(single.Output); d != 0 {
			t.Fatalf("member %d output differs from single run by %v", i, d)
		}
	}
}

func TestPlanCacheMemoizes(t *testing.T) {
	rt := newRT(t)
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}

	p1, _, err := rt.PlanCached(m, rc)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := rt.PlanCached(m, rc)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeated Plan must return the cached plan, not re-partition")
	}
	// The Numeric flag is per-request and must not split the key.
	numRC := rc
	numRC.Numeric = true
	p3, _, err := rt.PlanCached(m, numRC)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("numeric and cost-only requests must share one plan entry")
	}

	// Estimate agrees with a direct cost-only run and memoizes per row count.
	est, err := rt.Estimate(m, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := rt.Run(m, nil, rc)
	if err != nil {
		t.Fatal(err)
	}
	if est != direct.Report.Latency {
		t.Fatalf("estimate %v != direct cost-only latency %v", est, direct.Report.Latency)
	}
	if _, err := rt.Estimate(m, rc, 0); err != nil { // clamps to 1
		t.Fatal(err)
	}
	if _, err := rt.Estimate(m, rc, 4); err != nil {
		t.Fatal(err)
	}
	s := rt.MemoStats()
	if s.Plans != 1 || s.Makespans != 2 {
		t.Fatalf("want 1 plan and 2 memoized makespans, got %+v", s)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("counters not moving: %+v", s)
	}

	// A different mechanism is a different key.
	if _, _, err := rt.PlanCached(m, RunConfig{Mechanism: MechCPUOnly, DType: tensor.QUInt8}); err != nil {
		t.Fatal(err)
	}
	if s := rt.MemoStats(); s.Plans != 2 {
		t.Fatalf("want 2 plans after a second mechanism, got %+v", s)
	}

	// Planner errors surface, not memoize.
	if _, _, err := rt.PlanCached(m, RunConfig{Mechanism: Mechanism(42)}); err == nil {
		t.Fatal("unknown mechanism must fail through the memo")
	}
	if _, err := rt.Estimate(m, RunConfig{Mechanism: Mechanism(42)}, 1); err == nil {
		t.Fatal("unknown mechanism must fail to estimate")
	}
	if _, err := rt.RunBatch(m, []exec.FusedItem{{Rows: 1}}, RunConfig{Mechanism: Mechanism(42)}); err == nil {
		t.Fatal("unknown mechanism must fail to run")
	}
	if s := rt.MemoStats(); s.Plans != 2 {
		t.Fatalf("failed lookups memoized a plan: %+v", s)
	}
}

// TestPlanCachedHitState: PlanCached reports a miss on a fresh key and a
// hit afterwards, returning the same cached plan either way.
func TestPlanCachedHitState(t *testing.T) {
	rt := newRT(t)
	m, err := models.LeNet5(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	p1, hit, err := rt.PlanCached(m, rc)
	if err != nil || hit {
		t.Fatalf("fresh key: hit=%v err=%v, want miss", hit, err)
	}
	p2, hit, err := rt.PlanCached(m, rc)
	if err != nil || !hit {
		t.Fatalf("repeat key: hit=%v err=%v, want hit", hit, err)
	}
	if p1 != p2 {
		t.Fatal("PlanCached returned different plans for one key")
	}
}
