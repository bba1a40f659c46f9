package core

import (
	"sync"
	"testing"

	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/tensor"
)

// TestRunReusesMemoizedPlan: Run, RunBatch and the plan cache share one
// memoized plan and layout per (model graph, run config); a repeated
// request runs no partitioner, and Plan still builds a fresh plan.
func TestRunReusesMemoizedPlan(t *testing.T) {
	rt := newRT(t)
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	if _, err := rt.Run(m, nil, rc); err != nil {
		t.Fatal(err)
	}
	first, hit, err := rt.prepare(m, rc)
	if err != nil || !hit {
		t.Fatalf("after Run: hit=%v err=%v, want a memoized plan", hit, err)
	}
	if _, err := rt.RunBatch(m, []exec.FusedItem{{Rows: 2}}, rc); err != nil {
		t.Fatal(err)
	}
	numeric := rc
	numeric.Numeric = true
	if p, _, _ := rt.prepare(m, numeric); p != first {
		t.Fatal("numeric and cost-only runs must share one memo entry")
	}
	c := NewPlanCache(rt)
	plan, hit, err := c.PlanCached(m, rc)
	if err != nil || !hit || plan != first.plan {
		t.Fatalf("plan cache: hit=%v err=%v, same plan %v; want the runtime's memoized plan", hit, err, plan == first.plan)
	}
	if fresh, err := rt.Plan(m, rc); err != nil || fresh == first.plan {
		t.Fatalf("Plan must build a new plan on every call (err %v)", err)
	}
	if n := len(rt.memo); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
}

// TestMemoKeysByGraph: two models with the same name but different graphs
// get their own plans, in the runtime memo and in a plan cache.
func TestMemoKeysByGraph(t *testing.T) {
	rt := newRT(t)
	a, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := models.GoogLeNet(models.Config{InputHW: 112, WidthScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Fatalf("names %q and %q, want one name", a.Name, b.Name)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	c := NewPlanCache(rt)
	pa, err := c.Plan(a, rc)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Plan(b, rc)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("same-named models alias one plan")
	}
	ea, err := c.Estimate(a, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := c.Estimate(b, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ea == eb {
		t.Fatalf("a full-size and a reduced GoogLeNet estimate the same makespan %v", ea)
	}
}

// TestConcurrentRunsMatchSerial: four goroutines running numeric
// inference on one Runtime and one model, each on its own inputs, get the
// serial outputs bit for bit — no two runs share an arena (run it under
// -race).
func TestConcurrentRunsMatchSerial(t *testing.T) {
	rt := newRT(t)
	m, err := models.GoogLeNet(models.Config{Numeric: true, InputHW: 32, WidthScale: 0.25, Classes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cal := make([]*tensor.Tensor, 2)
	for i := range cal {
		cal[i] = tensor.New(m.InputShape)
		cal[i].FillRandom(uint64(100+i), 1)
	}
	if err := m.Calibrate(cal); err != nil {
		t.Fatal(err)
	}
	const workers, runs = 4, 3
	rc := RunConfig{Mechanism: MechMuLayer, Numeric: true}
	inputs := make([]*tensor.Tensor, workers*runs)
	want := make([]*tensor.Tensor, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.New(m.InputShape)
		inputs[i].FillRandom(uint64(500+i), 1)
		res, err := rt.Run(m, inputs[i], rc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Output
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				i := w*runs + r
				res, err := rt.Run(m, inputs[i], rc)
				if err != nil {
					t.Error(err)
					return
				}
				if d := res.Output.MaxAbsDiff(want[i]); d != 0 {
					t.Errorf("worker %d input %d: output differs from the serial run by %v", w, i, d)
				}
			}
		}(w)
	}
	wg.Wait()
}
