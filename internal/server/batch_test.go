package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/device"
	"mulayer/internal/soc"
)

// TestBatcherCoalesces: concurrent same-model requests inside one window
// must run as one fused batch, and every member must observe the batch's
// row count.
func TestBatcherCoalesces(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 16,
		MaxBatch:   8,
		BatchWait:  100 * time.Millisecond,
	})
	const n = 6
	var wg sync.WaitGroup
	outs := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.Submit(context.Background(), "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.batchRows < 2 {
			t.Fatalf("request %d ran in a batch of %d; concurrent submissions inside one %v window must coalesce", i, o.batchRows, s.cfg.BatchWait)
		}
		if o.simLat <= 0 || o.energyJ <= 0 {
			t.Fatalf("request %d: degenerate result %+v", i, o)
		}
	}
}

// TestBatchFillDispatchesEarly: a window that reaches MaxBatch rows must
// dispatch immediately, not wait out BatchWait.
func TestBatchFillDispatchesEarly(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 16,
		MaxBatch:   2,
		BatchWait:  time.Hour, // the timer must never be the trigger
	})
	start := time.Now()
	var wg sync.WaitGroup
	outs := make([]outcome, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.Submit(context.Background(), "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("full window took %v to dispatch", el)
	}
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.batchRows != 2 {
			t.Fatalf("request %d: batch rows %d, want 2", i, o.batchRows)
		}
	}
}

// TestClientBatchRows: a request carrying Batch=n rows fills the window by
// itself when n == MaxBatch.
func TestClientBatchRows(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 16,
		MaxBatch:   4,
		BatchWait:  time.Hour,
	})
	out := s.Submit(context.Background(), "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 4)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.batchRows != 4 {
		t.Fatalf("batch rows %d, want 4", out.batchRows)
	}
}

// TestCancelWhileQueuedSparesBatchmates: a member cancelled before its
// batch reaches the device is dropped — its batchmates complete, and the
// fused run excludes the dead member's rows.
func TestCancelWhileQueuedSparesBatchmates(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 16,
		MaxBatch:   8,
		BatchWait:  150 * time.Millisecond,
	})
	ctxC, cancelC := context.WithCancel(context.Background())
	outs := make([]outcome, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i == 2 {
				ctx = ctxC
			}
			outs[i] = s.Submit(ctx, "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
		}(i)
	}
	// Cancel the third member while the window is still open.
	time.Sleep(30 * time.Millisecond)
	cancelC()
	wg.Wait()

	if !errors.Is(outs[2].err, context.Canceled) {
		t.Fatalf("cancelled member: got %v, want context.Canceled", outs[2].err)
	}
	for i := 0; i < 2; i++ {
		if outs[i].err != nil {
			t.Fatalf("batchmate %d failed after a member was cancelled: %v", i, outs[i].err)
		}
		if outs[i].batchRows != 2 {
			t.Fatalf("batchmate %d: fused rows %d, want 2 (the dead member's row must not run)", i, outs[i].batchRows)
		}
	}
}

// TestCancelMidBatchSparesBatchmates: a member whose deadline dies while
// the batch occupies the device gets its context error; its batchmates'
// results stand.
func TestCancelMidBatchSparesBatchmates(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 16,
		MaxBatch:   3,
		BatchWait:  time.Hour, // dispatch on fill
		TimeScale:  0.0001,    // lenet5 ≈ 120µs sim → >1s wall pacing
	})
	ctxC, cancelC := context.WithCancel(context.Background())
	outs := make([]outcome, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i == 2 {
				ctx = ctxC
			}
			outs[i] = s.Submit(ctx, "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
		}(i)
	}
	// The batch dispatches on fill and paces for >1s; cancel one member
	// while the batch occupies the device.
	time.Sleep(300 * time.Millisecond)
	cancelC()
	wg.Wait()

	if !errors.Is(outs[2].err, context.Canceled) {
		t.Fatalf("cancelled member: got %v, want context.Canceled", outs[2].err)
	}
	for i := 0; i < 2; i++ {
		if outs[i].err != nil {
			t.Fatalf("batchmate %d failed after a mid-batch cancellation: %v", i, outs[i].err)
		}
		if outs[i].batchRows != 3 {
			t.Fatalf("batchmate %d: fused rows %d, want 3 (the cancelled member's row was already in the panels)", i, outs[i].batchRows)
		}
	}
}

// TestBatchedEndToEnd is the end-to-end integration pass: concurrent HTTP
// clients with mixed models and mixed deadlines through the batcher,
// asserting per-request correctness and batch demux isolation (every
// reply reports its own model and a sane fused report).
func TestBatchedEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 2},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 64,
		MaxBatch:   4,
		BatchWait:  20 * time.Millisecond,
	})

	const n = 24
	type reply struct {
		model string
		code  int
		body  InferResponse
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{"googlenet", "lenet5"}[i%2]
			req := InferRequest{Model: model, Mechanism: "mulayer", TimeoutMS: 10000}
			if i%4 == 0 {
				req.Batch = 2
			}
			resp, data := postInfer(t, ts.URL, req)
			replies[i] = reply{model: model, code: resp.StatusCode}
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(data, &replies[i].body); err != nil {
					t.Errorf("request %d: bad JSON %v (%s)", i, err, data)
				}
			} else {
				t.Errorf("request %d: status %d (%s)", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()

	coalesced := false
	for i, r := range replies {
		if r.code != http.StatusOK {
			continue
		}
		// Demux isolation: the reply must describe the request's own model,
		// not a batchmate's.
		if r.body.Model != r.model {
			t.Errorf("request %d for %s got a reply for %s", i, r.model, r.body.Model)
		}
		if r.body.LatencyUS <= 0 || r.body.EnergyMJ <= 0 || r.body.BatchRows < 1 {
			t.Errorf("request %d: degenerate reply %+v", i, r.body)
		}
		if r.body.BatchRows > 4 {
			t.Errorf("request %d: batch rows %d exceed max_batch", i, r.body.BatchRows)
		}
		if r.body.BatchRows > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Error("no request was served in a batch of >1 rows; the batcher never coalesced")
	}

	// The batching metric families must be live.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"# TYPE mulayer_batch_occupancy histogram",
		"mulayer_batch_occupancy_count",
		"mulayer_batch_window_wait_seconds_count",
		"mulayer_batches_total",
		"mulayer_plan_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPlaceLocked: placement picks the earliest predicted completion,
// ties going to the earlier device, and with no candidate answers
// ErrNoDevice when no device has the class, else the last planner error,
// else ErrNoHealthyDevice.
func TestPlaceLocked(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 2},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 8,
	})
	m := s.cfg.Models["lenet5"]
	hi0, hi1, mid := devByName(t, s, "high-0"), devByName(t, s, "high-1"), devByName(t, s, "mid-0")
	place := func(key groupKey) (placement, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.placeLocked(key, m, 1, time.Now())
	}
	key := groupKey{model: "lenet5", mech: core.MechCPUOnly, soc: "high"}

	// Idle twins tie on completion: the earlier device wins.
	pl, err := place(key)
	if err != nil || pl.d != hi0 {
		t.Fatalf("idle twins: got %v, %v; want high-0", pl.d, err)
	}
	if pl.cost <= 0 || pl.done != pl.cost {
		t.Fatalf("idle device: cost %v, done %v; want done = cost > 0", pl.cost, pl.done)
	}
	// Committed backlog on the first twin hands the work to the second.
	hi0.backlogNS.Add(int64(time.Second))
	pl, err = place(key)
	hi0.backlogNS.Add(-int64(time.Second))
	if err != nil || pl.d != hi1 {
		t.Fatalf("first twin backlogged: got %v, %v; want high-1", pl.d, err)
	}

	if _, err := place(groupKey{model: "lenet5", mech: core.MechCPUOnly, soc: "low"}); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("no device of the class: got %v, want ErrNoDevice", err)
	}
	highs := uint64(1)<<uint(hi0.id) | 1<<uint(hi1.id)
	if _, err := place(groupKey{model: "lenet5", mech: core.MechCPUOnly, soc: "high", exclude: highs}); !errors.Is(err, ErrNoHealthyDevice) {
		t.Fatalf("every device of the class excluded: got %v, want ErrNoHealthyDevice", err)
	}
	// With its CPU dead, mid cannot plan CPU-only work: that planner error
	// outranks the excluded high devices.
	mid.recordFailure(device.CPU.Bit(), s.cfg.FailThreshold, time.Second, time.Second, time.Now())
	_, want := mid.rt.Estimate(m, mid.runCfg(core.MechCPUOnly), 1)
	if want == nil {
		t.Fatal("CPU-only planned on a device whose CPU is dead")
	}
	if _, err := place(groupKey{model: "lenet5", mech: core.MechCPUOnly, exclude: highs}); err == nil || err.Error() != want.Error() {
		t.Fatalf("only a device that cannot plan left: got %v, want the planner error %v", err, want)
	}
}
