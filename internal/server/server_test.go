package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mulayer/internal/soc"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Models == nil {
		cfg.Models = testModels(t)
	}
	base := runtime.NumGoroutine()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.sched.Drain(ctx)
		// Every worker, window timer, and pacing timer must be gone after
		// the drain — a small slack absorbs httptest and runtime helpers.
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > base+4 {
			if time.Now().After(deadline) {
				t.Errorf("goroutines %d vs baseline %d: leak after drain", runtime.NumGoroutine(), base)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	return s, ts
}

func postInfer(t *testing.T, url string, req InferRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestEndToEnd drives the full API: concurrent inferences for two models,
// model listing, health, status, and metrics exposition.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 2},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 32,
	})

	const perModel = 6
	type reply struct {
		code int
		body InferResponse
	}
	var wg sync.WaitGroup
	replies := make([]reply, 2*perModel)
	for i := 0; i < 2*perModel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := []string{"googlenet", "lenet5"}[i%2]
			resp, data := postInfer(t, ts.URL, InferRequest{Model: model, Mechanism: "mulayer"})
			replies[i].code = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(data, &replies[i].body); err != nil {
					t.Errorf("bad JSON: %v (%s)", err, data)
				}
			} else {
				t.Errorf("request %d: status %d (%s)", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		if r.code != http.StatusOK {
			continue
		}
		if r.body.LatencyUS <= 0 || r.body.EnergyMJ <= 0 {
			t.Errorf("reply %d: degenerate report %+v", i, r.body)
		}
		if r.body.Device == "" || r.body.SoC == "" {
			t.Errorf("reply %d: missing placement %+v", i, r.body)
		}
	}

	// Model listing.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models     []ModelInfo `json:"models"`
		Mechanisms []string    `json:"mechanisms"`
		SoCs       []string    `json:"socs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 2 || len(list.SoCs) != 2 || len(list.Mechanisms) == 0 {
		t.Fatalf("bad listing %+v", list)
	}

	// Health.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}

	// Status.
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		QueueDepth int `json:"queue_depth"`
		Devices    []deviceStatus
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Devices) != 3 {
		t.Fatalf("statusz devices %+v", st.Devices)
	}

	// Metrics: the series the issue calls for must be present.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metricsText := string(mdata)
	for _, want := range []string{
		`mulayer_requests_total{model="googlenet",soc="high",mechanism="mulayer",code="200"}`,
		"# TYPE mulayer_inference_latency_seconds histogram",
		"mulayer_queue_wait_seconds_count",
		"mulayer_queue_depth 0",
		"# TYPE mulayer_rejected_total counter",
		"mulayer_wall_seconds_sum",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
	})
	resp, _ := postInfer(t, ts.URL, InferRequest{Model: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d", resp.StatusCode)
	}
	resp, _ = postInfer(t, ts.URL, InferRequest{Model: "lenet5", Mechanism: "warp"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mechanism: %d", resp.StatusCode)
	}
	resp, _ = postInfer(t, ts.URL, InferRequest{Model: "lenet5", SoC: "tpu"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown soc: %d", resp.StatusCode)
	}
	r, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", r.StatusCode)
	}
	r, err = http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(make([]byte, MaxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", r.StatusCode)
	}
}

// TestQueueFullHTTP: a tiny queue on a paced device must answer 503 with
// a Retry-After header once saturated.
func TestQueueFullHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 1,
		TimeScale:  0.05,
	})
	const n = 6
	codes := make([]int, n)
	headers := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postInfer(t, ts.URL, InferRequest{Model: "googlenet", TimeoutMS: 5000})
			codes[i] = resp.StatusCode
			headers[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	var ok, rejected int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
			if headers[i] == "" {
				t.Errorf("503 reply %d missing Retry-After", i)
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Fatalf("want both 200s and 503s under overload, got ok=%d rejected=%d", ok, rejected)
	}
}

// TestRequestTimeoutHTTP: a deadline shorter than the paced inference
// yields 504.
func TestRequestTimeoutHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
		TimeScale:  0.05, // googlenet ≈ 600ms wall
	})
	resp, body := postInfer(t, ts.URL, InferRequest{Model: "googlenet", TimeoutMS: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestGracefulShutdown starts a real listener, serves traffic, then
// shuts down: in-flight work completes, healthz flips to draining, and
// the listener closes cleanly.
func TestGracefulShutdown(t *testing.T) {
	cfg := Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		QueueDepth: 16,
		Models:     testModels(t),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	for i := 0; i < 4; i++ {
		resp, data := postInfer(t, url, InferRequest{Model: "lenet5"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-shutdown request: %d (%s)", resp.StatusCode, data)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if got := s.sched.QueueDepth(); got != 0 {
		t.Fatalf("queue depth %d after shutdown", got)
	}
}

// TestReadyzDraining verifies the liveness/readiness split while
// draining: readiness flips to 503, liveness stays 200.
func TestReadyzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
	})
	// Before draining: both probes pass and readyz lists device health.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz struct {
		Ready   bool `json:"ready"`
		Devices []struct {
			Health string `json:"health"`
			Down   string `json:"down"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rz.Ready {
		t.Fatalf("readyz before drain: %d %+v", resp.StatusCode, rz)
	}
	if len(rz.Devices) != 1 || rz.Devices[0].Health != "ok" || rz.Devices[0].Down != "none" {
		t.Fatalf("readyz devices %+v", rz.Devices)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.sched.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Liveness stays 200 while draining (the process is fine).
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
	// Readiness flips.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), `"draining":true`) {
		t.Fatalf("readyz while draining: %d %q", resp.StatusCode, data)
	}
	// Infer while draining also answers 503.
	resp2, _ := postInfer(t, ts.URL, InferRequest{Model: "lenet5"})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: %d", resp2.StatusCode)
	}
}

// TestInferChecksumHeader: every /v1/infer reply — success and error
// alike — carries X-Mulayer-Checksum over the exact bytes sent, so a
// proxy can verify the reply survived the network intact.
func TestInferChecksumHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
	})
	check := func(resp *http.Response, body []byte) {
		t.Helper()
		got := resp.Header.Get(ChecksumHeader)
		if got == "" {
			t.Fatalf("%d reply has no %s header", resp.StatusCode, ChecksumHeader)
		}
		if want := BodyChecksum(body); got != want {
			t.Fatalf("%d reply checksum %s, body hashes to %s", resp.StatusCode, got, want)
		}
	}
	resp, body := postInfer(t, ts.URL, InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d (%s)", resp.StatusCode, body)
	}
	check(resp, body)
	resp, body = postInfer(t, ts.URL, InferRequest{Model: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d", resp.StatusCode)
	}
	check(resp, body)
}
