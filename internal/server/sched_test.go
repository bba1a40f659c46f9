package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/models"
	"mulayer/internal/server/metrics"
	"mulayer/internal/soc"
)

// testModels loads a small model set once per test.
func testModels(t *testing.T) map[string]*models.Model {
	t.Helper()
	out := map[string]*models.Model{}
	for name, build := range map[string]func(models.Config) (*models.Model, error){
		"googlenet": models.GoogLeNet,
		"lenet5":    models.LeNet5,
	} {
		m, err := build(models.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

func newSched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.Models == nil {
		cfg.Models = testModels(t)
	}
	s, err := NewScheduler(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

func TestSubmitBasic(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		QueueDepth: 8,
	})
	out := s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.simLat <= 0 || out.energyJ <= 0 {
		t.Fatalf("degenerate result %+v", out)
	}
	if out.batchRows != 1 {
		t.Fatalf("batch rows %d with batching off, want 1", out.batchRows)
	}
	if out.class != "high" {
		t.Fatalf("class %q", out.class)
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after completion", s.QueueDepth())
	}
}

// TestDispatchPrefersFasterSoC: with one idle device per class, the
// makespan dispatcher must pick the class whose predicted latency is
// lower — the high-end SoC for every evaluated network.
func TestDispatchPrefersFasterSoC(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
		},
		QueueDepth: 8,
	})
	for i := 0; i < 3; i++ {
		out := s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.class != "high" {
			t.Fatalf("idle pool dispatched to %q, want high (lower predicted latency)", out.class)
		}
	}
}

func TestSoCClassPinningAndNoDevice(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
		},
		QueueDepth: 8,
	})
	out := s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "mid", 1)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.class != "mid" {
		t.Fatalf("pinned to mid, ran on %q", out.class)
	}
	out = s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "tpu", 1)
	if !errors.Is(out.err, ErrNoDevice) {
		t.Fatalf("unknown class: got %v, want ErrNoDevice", out.err)
	}
}

// TestQueueFull: a single slow (paced) device with a one-slot queue must
// reject the second concurrent request with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 1,
		TimeScale:  0.05, // ~30ms simulated → ~600ms wall: device stays busy
	})
	first := make(chan outcome, 1)
	go func() {
		first <- s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
	}()
	// Wait until the first request is admitted.
	deadline := time.Now().Add(2 * time.Second)
	for s.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	out := s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", out.err)
	}
	if n := s.RetryAfter(); n < 1 || n > 30 {
		t.Fatalf("retry-after %d out of range", n)
	}
	if o := <-first; o.err != nil {
		t.Fatalf("first request: %v", o.err)
	}
}

// TestQueuedRequestDeadline: a request stuck behind a slow one times out
// while queued and reports the context error.
func TestQueuedRequestDeadline(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
		TimeScale:  0.05,
	})
	first := make(chan outcome, 1)
	go func() {
		first <- s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	out := s.Submit(ctx, "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
	if !errors.Is(out.err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", out.err)
	}
	if o := <-first; o.err != nil {
		t.Fatalf("first request: %v", o.err)
	}
}

// TestMakespanSpreadsLoad: many concurrent requests across two identical
// devices must land on both (minimum-completion-time dispatch balances
// identical queues).
func TestMakespanSpreadsLoad(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		QueueDepth: 64,
		TimeScale:  2, // paced but quick (~15ms wall per inference)
	})
	const n = 8
	var wg sync.WaitGroup
	outs := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.Submit(context.Background(), "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
		}(i)
	}
	wg.Wait()
	used := map[string]int{}
	for _, o := range outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
		used[o.device]++
	}
	if len(used) != 2 {
		t.Fatalf("all %d requests landed on %v; want both devices used", n, used)
	}
	for _, d := range s.Devices() {
		if got := d.predictedCompletion(); got != 0 {
			t.Fatalf("device %s backlog %v after drain to idle", d.name, got)
		}
	}
}

func TestDrainRejectsAndCompletes(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
	})
	out := s.Submit(context.Background(), "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
	if out.err != nil {
		t.Fatal(out.err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out = s.Submit(context.Background(), "lenet5", s.cfg.Models["lenet5"], core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrDraining) {
		t.Fatalf("post-drain submit: got %v, want ErrDraining", out.err)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// classRT returns the runtime the devices of one SoC class share.
func classRT(t *testing.T, s *Scheduler, class string) *core.Runtime {
	t.Helper()
	for _, d := range s.devices {
		if d.class == class {
			return d.rt
		}
	}
	t.Fatalf("no device of class %q", class)
	return nil
}

func TestPlanCacheIsPerClass(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 8,
	})
	m := s.cfg.Models["googlenet"]
	rc := runCfg(core.MechMuLayer)
	var costs []time.Duration
	for _, class := range []string{"high", "mid"} {
		c, err := classRT(t, s, class).Estimate(m, rc, 1)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	if costs[0] == costs[1] {
		t.Fatalf("high and mid predicted costs identical (%v); each class needs its own cache", costs[0])
	}
	// A second estimate for the same key must hit the memo, and a new row
	// count must reuse the cached plan (one plan, two makespans).
	high := classRT(t, s, "high")
	before := high.MemoStats()
	if _, err := high.Estimate(m, rc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := high.Estimate(m, rc, 4); err != nil {
		t.Fatal(err)
	}
	after := high.MemoStats()
	if after.Hits <= before.Hits {
		t.Fatalf("repeated estimate did not hit the cache: %+v -> %+v", before, after)
	}
	if after.Plans != 1 || after.Makespans != 2 {
		t.Fatalf("want 1 plan with 2 memoized makespans, got %+v", after)
	}
}

// TestCacheStatsPinned pins the /statusz plan_cache counters for a fixed
// sequence of requests, each served alone, on a two-class pool: every
// admission warm-up, placement estimate and worker plan lookup counts
// one hit or miss, and the class runtimes' plans and makespans sum.
func TestCacheStatsPinned(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 2},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 8,
	})
	for i, r := range []struct {
		model, soc string
		mech       core.Mechanism
		rows       int
		want       core.MemoStats
	}{
		{"googlenet", "", core.MechMuLayer, 1, core.MemoStats{Plans: 2, Makespans: 2, Hits: 7, Misses: 4}},
		{"googlenet", "", core.MechMuLayer, 1, core.MemoStats{Plans: 2, Makespans: 2, Hits: 18, Misses: 4}},
		{"googlenet", "high", core.MechMuLayer, 3, core.MemoStats{Plans: 2, Makespans: 3, Hits: 24, Misses: 5}},
		{"lenet5", "mid", core.MechCPUOnly, 1, core.MemoStats{Plans: 3, Makespans: 4, Hits: 27, Misses: 7}},
		{"lenet5", "", core.MechMuLayer, 2, core.MemoStats{Plans: 5, Makespans: 8, Hits: 32, Misses: 13}},
		{"googlenet", "mid", core.MechGPUOnly, 1, core.MemoStats{Plans: 6, Makespans: 9, Hits: 35, Misses: 15}},
		{"googlenet", "", core.MechMuLayer, 1, core.MemoStats{Plans: 6, Makespans: 9, Hits: 46, Misses: 15}},
	} {
		if out := s.Submit(context.Background(), r.model, s.cfg.Models[r.model], r.mech, r.soc, r.rows); out.err != nil {
			t.Fatalf("request %d: %v", i, out.err)
		}
		if got := s.CacheStats(); got != r.want {
			t.Fatalf("after request %d: stats %+v, want %+v", i, got, r.want)
		}
	}
}

// settleLocked records a request's terminal metrics before it delivers
// the outcome: a client that holds its reply must already find itself
// counted, or its next /statusz can read fewer wall samples than
// queue-wait samples. The outcome channel here is unbuffered, so the
// receive below completes exactly when settleLocked delivers, and the
// metrics are read at that point. Its pass needs no timing: the metrics
// happen before the send. The yield only makes a regression show every
// time, since a receiver that takes the value from a parked sender runs
// on before the sender resumes to record.
func TestSettleFinalRecordsBeforeDelivering(t *testing.T) {
	s := newSched(t, Config{SoCs: []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}}})
	wallCount := func() (n int64) {
		for _, row := range summarizeLatency(s.mets.wallLat) {
			n += row.Count
		}
		return n
	}
	for i := int64(1); i <= 3; i++ {
		p := &pending{modelName: "lenet5", mech: core.MechMuLayer, enqueued: time.Now(), done: make(chan outcome)}
		s.mu.Lock()
		s.queued++
		s.mu.Unlock()
		go func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.settleLocked(s.devices[0], p, outcome{simLat: time.Millisecond})
		}()
		runtime.Gosched() // let settleLocked reach the delivery first
		<-p.done
		if n := wallCount(); n != i {
			t.Fatalf("outcome %d delivered with %d wall samples recorded", i, n)
		}
	}
}

// A paced batch whose members are all cancelled frees its device at once:
// nobody is left to use the result, so the pacing wait must not hold the
// device (and a drain) for the rest of the batch's scaled makespan.
func TestCancelledBatchFreesPacedDevice(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
		TimeScale:  0.001, // one GoogLeNet ≈ 100s wall
	})
	d := s.devices[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 3
	var wg sync.WaitGroup
	outs := make([]outcome, n)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = s.Submit(ctx, "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.mets.inflight.With(d.name).Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no batch went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	for i, o := range outs {
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("member %d: got %v, want context.Canceled", i, o.err)
		}
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain with every member cancelled: %v", err)
	}
	if got := s.mets.inflight.With(d.name).Value(); got != 0 {
		t.Fatalf("%s still has %v batches in flight after the drain", d.name, got)
	}
}
