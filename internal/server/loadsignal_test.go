package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/soc"
)

// TestReadyzLoadSignal drives a paced pool and checks the machine-readable
// load signal /readyz answers with: schema stability, queue pressure,
// per-device health, and the draining flip to 503 — the contract the
// fleet frontend probes and routes by.
func TestReadyzLoadSignal(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 16,
		TimeScale:  5,
	})
	getSignal := func() LoadSignal {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sig LoadSignal
		if err := json.NewDecoder(resp.Body).Decode(&sig); err != nil {
			t.Fatal(err)
		}
		want := http.StatusOK
		if !sig.Ready {
			want = http.StatusServiceUnavailable
		}
		if resp.StatusCode != want {
			t.Fatalf("readyz %d with ready=%v, want %d", resp.StatusCode, sig.Ready, want)
		}
		return sig
	}

	sig := getSignal()
	if !sig.Ready || sig.Draining {
		t.Fatalf("fresh pool not ready: %+v", sig)
	}
	if sig.QueueCap != 16 || sig.QueueDepth != 0 {
		t.Fatalf("queue pressure %+v", sig)
	}
	if len(sig.Devices) != 2 {
		t.Fatalf("devices %+v", sig.Devices)
	}
	for _, d := range sig.Devices {
		if d.Health != "ok" || d.Device == "" || d.SoC == "" {
			t.Fatalf("device row %+v", d)
		}
	}

	// Serve some paced traffic; the queue-wait p95 becomes observable.
	for i := 0; i < 4; i++ {
		resp, body := postInfer(t, ts.URL, InferRequest{Model: "lenet5"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer: %d (%s)", resp.StatusCode, body)
		}
	}
	sig = getSignal()
	if sig.QueueWaitP95MS < 0 {
		t.Fatalf("negative queue-wait p95: %+v", sig)
	}

	// With paced work on every device the forward predictor must see it:
	// the predicted wait is the least-loaded device's backlog, so both
	// devices carry work while the signal is read. Plain http.Post in the
	// goroutines — test helpers must not t.Fatal off the test goroutine.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		model := "googlenet"
		if i%2 == 1 {
			model = "alexnet"
		}
		payload, _ := json.Marshal(InferRequest{Model: model})
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(payload))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	sawWait := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if getSignal().PredictedWaitMS > 0 {
			sawWait = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if !sawWait {
		t.Fatal("predicted_wait_ms never rose above 0 with paced work in flight")
	}

	// Draining flips ready off — the frontend must stop routing here.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.sched.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	sig = getSignal()
	if sig.Ready || !sig.Draining {
		t.Fatalf("draining pool still ready: %+v", sig)
	}
}

// TestRetryAfterSkipsUnservableDevices: Retry-After is derived from the
// same forecast as the load signal, so a dead device's empty queue does
// not pull it down to the 1s floor while the one device that can serve
// holds seconds of paced work; an unpaced pool, whose predictions cost
// no wall time, answers the floor whatever simulated backlog it holds.
func TestRetryAfterSkipsUnservableDevices(t *testing.T) {
	s, _ := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		QueueDepth: 16,
		TimeScale:  0.05, // one GoogLeNet ≈ 2s wall
	})
	dead, live := s.sched.devices[0], s.sched.devices[1]
	dead.hmu.Lock()
	dead.dead = true
	dead.hmu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sched.Submit(ctx, "googlenet", s.cfg.Models["googlenet"], core.MechMuLayer, "", 1)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); live.depth.Load() < 8; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 requests dispatched to %s", live.depth.Load(), live.name)
		}
		time.Sleep(time.Millisecond)
	}
	sig := s.LoadSignal()
	want := min(int(math.Ceil(sig.PredictedWaitMS/1000)), 30)
	if want < 2 {
		t.Fatalf("predicted wait %.1fms with eight paced requests queued", sig.PredictedWaitMS)
	}
	if got := s.sched.RetryAfter(); got != want {
		t.Fatalf("Retry-After %ds, want %ds from predicted_wait_ms %.1f", got, want, sig.PredictedWaitMS)
	}

	unpaced := newSched(t, Config{SoCs: []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}}})
	d := unpaced.devices[0]
	d.backlogNS.Add(int64(5 * time.Second))
	defer d.backlogNS.Add(-int64(5 * time.Second))
	if got := unpaced.RetryAfter(); got != 1 {
		t.Fatalf("unpaced Retry-After %ds with 5s of simulated backlog, want 1", got)
	}
}
