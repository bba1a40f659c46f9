package frontend

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mulayer/internal/faults"
	"mulayer/internal/server"
	"mulayer/internal/soc"
)

// TestChaosFleetGrayFailures is the fleet gray-failure chaos smoke
// (make chaos-fleet-smoke): four live backends behind the frontend on a
// misbehaving network — one backend gray-slow (+250ms on every leg),
// one corrupting half its replies, the rest of the fleet on a lossy
// path that drops and occasionally corrupts — under sustained client
// load. The fleet must hold ≥99% availability, deliver zero corrupt
// bytes (every client verifies the checksum itself), eject the slow
// backend on passive latency evidence alone, and readmit it once the
// network heals.
func TestChaosFleetGrayFailures(t *testing.T) {
	leakCheck(t)
	mods := fleetModels(t)
	cfg := server.Config{
		Models:     mods,
		SoCs:       []server.SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 64,
	}
	backends := []*smokeBackend{
		startSmokeBackend(t, cfg),
		startSmokeBackend(t, cfg),
		startSmokeBackend(t, cfg),
		startSmokeBackend(t, cfg),
	}
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = "http://" + b.addr
	}

	// The fault injector wraps the tuned transport; faults are installed
	// at runtime once warmup traffic reveals which backend the affinity
	// hash picked (a statically chosen victim might never see traffic).
	faultTr := faults.NewTransport(nil, NewHTTPTransport(2*time.Second, 5*time.Second, 32))
	f, err := New(Config{
		Backends:          urls,
		ProbeEvery:        50 * time.Millisecond,
		ProbeTimeout:      time.Second,
		FailThreshold:     2,
		QuarantineBackoff: 200 * time.Millisecond,
		MaxAttempts:       3,
		HedgeBudget:       0.1,
		HedgeMax:          500 * time.Millisecond,
		RequestTimeout:    5 * time.Second,
		Transport:         faultTr,
		EjectFactor:       3,
		EjectHold:         300 * time.Millisecond,
		EjectMinSamples:   2,
		EjectBackoff:      600 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		fts.Close()
		f.Close()
	})

	// Client load: every worker verifies the stamped checksum against
	// the bytes it received — the zero-corruption assertion is end to
	// end, not the frontend grading its own homework.
	var total, ok2xx, shed5xx, other, corrupt atomic.Int64
	var firstOther, firstCorrupt atomic.Value
	var servedBy sync.Map // model -> backend URL from the last 2xx
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			close(stopLoad)
			wg.Wait()
		})
	}
	t.Cleanup(stop) // a failed eventually must not strand the workers
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := "lenet5"
			if w%2 == 1 {
				model = "googlenet"
			}
			payload, _ := json.Marshal(server.InferRequest{Model: model})
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := http.Post(fts.URL+"/v1/infer", "application/json", bytes.NewReader(payload))
				total.Add(1)
				if err != nil {
					other.Add(1)
					firstOther.CompareAndSwap(nil, err.Error())
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode < 300:
					ok2xx.Add(1)
					if want := resp.Header.Get(server.ChecksumHeader); want != "" &&
						server.BodyChecksum(body) != want {
						corrupt.Add(1)
						firstCorrupt.CompareAndSwap(nil, want)
					}
					if be := resp.Header.Get("X-Mulayer-Backend"); be != "" {
						servedBy.Store(model, be)
					}
				case resp.StatusCode == http.StatusServiceUnavailable:
					shed5xx.Add(1)
				default:
					other.Add(1)
					firstOther.CompareAndSwap(nil, string(body))
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	// Warm up clean until affinity has settled for both models.
	var slowURL string
	eventually(t, 5*time.Second, "affinity settled", func() bool {
		v, ok := servedBy.Load("lenet5")
		if ok {
			slowURL = v.(string)
		}
		_, ok2 := servedBy.Load("googlenet")
		return ok && ok2
	})

	// Fault the network: the lenet5 affinity backend turns gray-slow, a
	// different backend corrupts half its replies, and everyone else
	// rides a lossy path.
	slowHost := strings.TrimPrefix(slowURL, "http://")
	corruptHost := ""
	for _, u := range urls {
		if h := strings.TrimPrefix(u, "http://"); h != slowHost {
			corruptHost = h
			break
		}
	}
	for target, fc := range map[string]faults.NetConfig{
		slowHost:    {Seed: 1, LatencyRate: 1, Latency: 250 * time.Millisecond},
		corruptHost: {Seed: 2, CorruptRate: 0.5},
		"":          {Seed: 3, DropRate: 0.03, CorruptRate: 0.05},
	} {
		if err := faultTr.SetConfig(target, fc); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("faults armed: slow=%s corrupt=%s (default path lossy)", slowHost, corruptHost)

	// The ejector must take the slow backend out on latency evidence
	// alone — it still answers every /readyz probe (250ms late, well
	// inside the probe budget), so the circuit breaker cannot see it.
	slowNorm, _ := NormalizeBackendURL(slowURL)
	eventually(t, 15*time.Second, "slow backend ejected", func() bool {
		for _, b := range f.reg.Snapshot() {
			if b.URL == slowNorm && b.Ejected {
				return true
			}
		}
		return false
	})

	// Heal the network (Clear drops the injectors and their counters, so
	// snapshot first) and watch the fleet readmit everyone.
	stats := faultTr.TotalStats()
	for _, target := range []string{slowHost, corruptHost, ""} {
		faultTr.Clear(target)
	}
	eventually(t, 15*time.Second, "fleet healthy after faults cleared", func() bool {
		return f.reg.EjectedCount() == 0 && f.reg.HealthyCount() == len(urls)
	})
	// A little clean tail traffic so readmission shows up in the numbers.
	time.Sleep(300 * time.Millisecond)
	stop()

	tot, ok, shed, oth, corr := total.Load(), ok2xx.Load(), shed5xx.Load(), other.Load(), corrupt.Load()
	if tot < 100 {
		t.Fatalf("load loop barely ran: %d requests", tot)
	}
	avail := float64(ok) / float64(tot)
	t.Logf("chaos fleet: %d requests, %d ok, %d shed, %d other, %d corrupt delivered → availability %.3f%%",
		tot, ok, shed, oth, corr, 100*avail)
	t.Logf("faults injected: %+v", stats)
	if stats.Injected() == 0 {
		t.Error("fault injector never fired — this chaos run was a clean run")
	}
	if corr > 0 {
		t.Errorf("%d corrupt responses reached clients (first stamped %v)", corr, firstCorrupt.Load())
	}
	if oth > 0 {
		t.Errorf("%d routing-attributable failures (first: %v)", oth, firstOther.Load())
	}
	if avail < 0.99 {
		t.Errorf("availability %.3f%% below the 99%% floor", 100*avail)
	}

	// The run only proves the integrity path if the network actually
	// corrupted something and the frontend refused it.
	mresp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), `mulayer_frontend_integrity_failures_total{`) {
		t.Errorf("no integrity failures recorded — corruption faults never hit the data path:\n%s", mdata)
	}

	// The readmitted backend serves real traffic again.
	payload, _ := json.Marshal(server.InferRequest{Model: "lenet5"})
	resp, err := http.Post(slowURL+"/v1/infer", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("readmitted backend refused a request: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readmitted backend: %d (%s)", resp.StatusCode, body)
	}
}
