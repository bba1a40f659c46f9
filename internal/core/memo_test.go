package core

import (
	"sync"
	"testing"
	"time"

	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/tensor"
)

// TestRunReusesMemoizedPlan: Run, RunBatch and PlanCached share one
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
	plan, hit, err := rt.PlanCached(m, rc)
	if err != nil || !hit || plan != first.plan {
		t.Fatalf("PlanCached: hit=%v err=%v, same plan %v; want the runtime's memoized plan", hit, err, plan == first.plan)
	}
	if fresh, err := rt.Plan(m, rc); err != nil || fresh == first.plan {
		t.Fatalf("Plan must build a new plan on every call (err %v)", err)
	}
	if n := len(rt.memo); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
}

// TestMemoKeysByGraph: two models with the same name but different graphs
// get their own memoized plans and estimates.
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
	pa, _, err := rt.PlanCached(a, rc)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := rt.PlanCached(b, rc)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("same-named models alias one plan")
	}
	ea, err := rt.Estimate(a, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := rt.Estimate(b, rc, 1)
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

// TestConcurrentEstimateAndRuns: goroutines calling Estimate, RunBatch and
// Run on one fresh Runtime race on its one memo — first plan build,
// makespan misses simulated outside the lock, run-path lookups — and
// still read the serial figures, with one plan and one makespan per row
// count memoized (run it under -race).
func TestConcurrentEstimateAndRuns(t *testing.T) {
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{Mechanism: MechMuLayer}
	const maxRows = 4
	ref := newRT(t)
	var want [maxRows + 1]time.Duration
	for rows := 1; rows <= maxRows; rows++ {
		res, err := ref.RunBatch(m, []exec.FusedItem{{Rows: rows}}, rc)
		if err != nil {
			t.Fatal(err)
		}
		want[rows] = res.Report.Latency
	}

	rt := newRT(t)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rows := 1 + (w+i)%maxRows
				var got time.Duration
				var err error
				switch w % 3 {
				case 0:
					got, err = rt.Estimate(m, rc, rows)
				case 1:
					var res *exec.FusedResult
					if res, err = rt.RunBatch(m, []exec.FusedItem{{Rows: rows}}, rc); err == nil {
						got = res.Report.Latency
					}
				default:
					var res *exec.Result
					rows = 1
					if res, err = rt.Run(m, nil, rc); err == nil {
						got = res.Report.Latency
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[rows] {
					t.Errorf("worker %d: %d rows took %v, serial %v", w, rows, got, want[rows])
				}
			}
		}(w)
	}
	wg.Wait()
	if s := rt.MemoStats(); s.Plans != 1 || s.Makespans != maxRows {
		t.Fatalf("memo %+v, want 1 plan and %d makespans", s, maxRows)
	}
}
