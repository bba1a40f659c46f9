package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mulayer/internal/dispatch"
	"mulayer/internal/faults"
	"mulayer/internal/models"
	"mulayer/internal/server"
	"mulayer/internal/soc"
)

// fleetModels loads the small model set the fleet tests serve.
func fleetModels(t *testing.T) map[string]*models.Model {
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

func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// leakCheck fails the test if goroutines outlive the cleanup stack
// registered after it.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > base+4 {
			if time.Now().After(deadline) {
				t.Errorf("goroutines %d vs baseline %d: leak", runtime.NumGoroutine(), base)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// newBackend spins a real inference server on an httptest listener.
func newBackend(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Models == nil {
		cfg.Models = fleetModels(t)
	}
	if cfg.SoCs == nil {
		cfg.SoCs = []server.SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}}
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 32
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, cancel := timeoutCtx(5 * time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	})
	return srv, ts
}

// newTestFrontend builds a frontend over the given backend URLs and
// serves it on an httptest listener.
func newTestFrontend(t *testing.T, cfg Config) (*Frontend, *httptest.Server) {
	t.Helper()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		ts.Close()
		f.Close()
	})
	return f, ts
}

func postFleetInfer(t *testing.T, url string, req server.InferRequest) (*http.Response, []byte) {
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

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pinFirst is a test policy that always ranks one pinned backend first,
// the rest in candidate order — deterministic routing for hedge and
// failover tests.
type pinFirst struct{ url *string }

func (p pinFirst) Rank(key string, cands []dispatch.Candidate) []dispatch.Decision {
	out := make([]dispatch.Decision, 0, len(cands))
	for i, c := range cands {
		if c.ID == *p.url {
			out = append([]dispatch.Decision{{Index: i, Reason: dispatch.ReasonAffinity}}, out...)
			continue
		}
		out = append(out, dispatch.Decision{Index: i, Reason: dispatch.ReasonLeastLoad})
	}
	return out
}

// TestFleetEndToEnd proxies real inference over two live backends and
// checks routing affinity, the passthroughs, and the fleet surfaces.
func TestFleetEndToEnd(t *testing.T) {
	leakCheck(t)
	_, b1 := newBackend(t, server.Config{})
	_, b2 := newBackend(t, server.Config{})
	_, fts := newTestFrontend(t, Config{
		Backends:   []string{b1.URL, b2.URL},
		ProbeEvery: 50 * time.Millisecond,
	})

	// Inference proxies end to end, and a model sticks to its
	// rendezvous backend while the fleet is idle.
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(server.InferRequest{Model: "lenet5"})
		resp, err := http.Post(fts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer %d: %d (%s)", i, resp.StatusCode, data)
		}
		var rep server.InferResponse
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Model != "lenet5" {
			t.Fatalf("reply for %q", rep.Model)
		}
		be := resp.Header.Get("X-Mulayer-Backend")
		if be == "" {
			t.Fatal("no backend header")
		}
		seen[be] = true
	}
	if len(seen) != 1 {
		t.Fatalf("idle-fleet affinity routed one model to %d backends: %v", len(seen), seen)
	}

	// Models passthrough.
	resp, err := http.Get(fts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "lenet5") {
		t.Fatalf("models passthrough: %d (%s)", resp.StatusCode, data)
	}

	// Fleet surfaces.
	resp, err = http.Get(fts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d", resp.StatusCode)
	}
	resp, err = http.Get(fts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Healthy != 2 || len(st.Backends) != 2 {
		t.Fatalf("statusz %+v", st)
	}
	resp, err = http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mulayer_frontend_requests_total",
		"mulayer_frontend_routing_total",
		"mulayer_frontend_backends_healthy 2",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// fakeBackend is a scriptable backend for registry and hedge tests:
// /readyz health is toggleable and a ready reply carries a fixed load
// signal, and /v1/infer runs the configured handler.
type fakeBackend struct {
	ts    *httptest.Server
	mu    sync.Mutex
	ready bool
	infer http.HandlerFunc
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{ready: true}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		ok := fb.ready
		fb.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ready":true,"queue_wait_p95_ms":1,"predicted_wait_ms":1,"backlog_ms":1}`)
	})
	mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		h := fb.infer
		fb.mu.Unlock()
		if h == nil {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"model":"fake"}`)
			return
		}
		h(w, r)
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) setReady(ok bool) {
	fb.mu.Lock()
	fb.ready = ok
	fb.mu.Unlock()
}

func (fb *fakeBackend) setInfer(h http.HandlerFunc) {
	fb.mu.Lock()
	fb.infer = h
	fb.mu.Unlock()
}

// TestProbeOneReadyzPerRound: the prober's only backend traffic is one
// GET /readyz per backend per round, and that reply's load signal is
// what placement ranks by.
func TestProbeOneReadyzPerRound(t *testing.T) {
	leakCheck(t)
	var mu sync.Mutex
	seen := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		if r.Method != http.MethodGet || r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ready":true,"predicted_wait_ms":42,"backlog_ms":40,"queue_depth":3}`)
	}))
	t.Cleanup(ts.Close)
	readyz := func() int {
		mu.Lock()
		defer mu.Unlock()
		return seen["GET /readyz"]
	}

	const every = 20 * time.Millisecond
	start := time.Now()
	_, fts := newTestFrontend(t, Config{
		Backends:     []string{ts.URL},
		ProbeEvery:   every,
		ProbeTimeout: 500 * time.Millisecond,
	})
	eventually(t, 2*time.Second, "five probe rounds", func() bool { return readyz() >= 5 })
	mu.Lock()
	counts := make(map[string]int, len(seen))
	for k, v := range seen {
		counts[k] = v
	}
	mu.Unlock()
	rounds := int(time.Since(start) / every)
	for path, n := range counts {
		if path != "GET /readyz" {
			t.Errorf("prober sent %d × %s; want only GET /readyz", n, path)
		}
	}
	if n := counts["GET /readyz"]; n > rounds {
		t.Errorf("%d /readyz probes in at most %d rounds", n, rounds)
	}

	resp, err := http.Get(fts.URL + "/admin/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].PredictedLoadMS != 42 || snap[0].QueueDepth != 3 {
		t.Fatalf("/admin/backends %+v, want predicted_load_ms 42 and queue_depth 3 from the /readyz signal", snap)
	}
}

// TestRegistryHealthTransitions walks one backend through the full
// circuit: healthy → quarantined (failed probes) → half-open probing →
// healthy again, and checks each transition was counted.
func TestRegistryHealthTransitions(t *testing.T) {
	leakCheck(t)
	fb := newFakeBackend(t)
	f, _ := newTestFrontend(t, Config{
		Backends:          []string{fb.ts.URL},
		ProbeEvery:        20 * time.Millisecond,
		ProbeTimeout:      500 * time.Millisecond,
		FailThreshold:     2,
		QuarantineBackoff: 80 * time.Millisecond,
	})
	state := func() string {
		snap := f.reg.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("snapshot %+v", snap)
		}
		return snap[0].State
	}
	url, err := NormalizeBackendURL(fb.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	events := func(ev string) int64 { return f.mets.health.With(url, ev).Value() }

	// Healthy, with a load signal from the probe.
	eventually(t, 2*time.Second, "first load signal", func() bool {
		snap := f.reg.Snapshot()
		return len(snap) == 1 && snap[0].State == "ok" && snap[0].SignalAgeMS >= 0
	})

	// Failing probes quarantine it at the threshold.
	fb.setReady(false)
	eventually(t, 2*time.Second, "quarantine", func() bool { return state() == "quarantined" })
	if events("quarantined") < 1 {
		t.Fatal("quarantine not counted")
	}
	if f.reg.HealthyCount() != 0 {
		t.Fatal("quarantined backend still counted healthy")
	}

	// Still down at backoff expiry: the half-open probe re-quarantines.
	eventually(t, 2*time.Second, "half-open probe", func() bool { return events("probing") >= 1 })
	eventually(t, 2*time.Second, "re-quarantine", func() bool { return events("quarantined") >= 2 })

	// Back up: the next half-open probe closes the circuit.
	fb.setReady(true)
	eventually(t, 4*time.Second, "recovery", func() bool { return state() == "ok" })
	if events("recovered") < 1 {
		t.Fatal("recovery not counted")
	}
	if f.reg.HealthyCount() != 1 {
		t.Fatal("recovered backend not healthy")
	}
}

// TestFailoverOnDeadBackend routes the primary attempt at a closed
// port; the transport failure must fail over to the live backend and
// quarantine the dead one.
func TestFailoverOnDeadBackend(t *testing.T) {
	leakCheck(t)
	_, live := newBackend(t, server.Config{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	pin := deadURL
	f, fts := newTestFrontend(t, Config{
		Backends:          []string{live.URL, deadURL},
		ProbeEvery:        20 * time.Millisecond,
		FailThreshold:     2,
		QuarantineBackoff: 10 * time.Second, // stays down for the test
		Policy:            pinFirst{url: &pin},
		HedgeBudget:       0, // isolate the failover path
	})

	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover infer: %d (%s)", resp.StatusCode, data)
	}
	liveURL, _ := NormalizeBackendURL(live.URL)
	if got := resp.Header.Get("X-Mulayer-Backend"); got != liveURL {
		t.Fatalf("served by %q, want %q", got, liveURL)
	}
	if f.mets.retries.Value() < 1 {
		t.Fatal("failover not counted as retry")
	}
	deadNorm, _ := NormalizeBackendURL(deadURL)
	if f.mets.transportErrors.With(deadNorm).Value() < 1 {
		t.Fatal("transport error not counted")
	}

	// Passive failures plus probe failures quarantine the dead backend.
	eventually(t, 2*time.Second, "dead backend quarantined", func() bool {
		for _, b := range f.reg.Snapshot() {
			if b.URL == deadNorm {
				return b.State == "quarantined"
			}
		}
		return false
	})

	// Requests keep flowing without the primary detour once quarantined.
	resp, data = postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-quarantine infer: %d (%s)", resp.StatusCode, data)
	}
}

// TestHedgeWinsAndCancelsLoser pins the primary at a stalled backend;
// the hedge must win on the fast replica, the stalled leg must be
// cancelled (observed via its request context), and nothing may leak —
// the cancelled loser releases its goroutine and connection.
func TestHedgeWinsAndCancelsLoser(t *testing.T) {
	leakCheck(t)
	_, fast := newBackend(t, server.Config{})
	slow := newFakeBackend(t)
	released := make(chan struct{})
	slow.setInfer(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server only notices a client disconnect
		// (the hedge loser's cancellation) once nothing is left to read.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			close(released)
		case <-time.After(10 * time.Second):
		}
	})

	pin := slow.ts.URL
	f, fts := newTestFrontend(t, Config{
		Backends:    []string{fast.URL, slow.ts.URL},
		ProbeEvery:  20 * time.Millisecond,
		Policy:      pinFirst{url: &pin},
		HedgeBudget: 1,
		HedgeMin:    10 * time.Millisecond,
		HedgeMax:    60 * time.Millisecond, // cold-start hedge delay
	})

	start := time.Now()
	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	lat := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged infer: %d (%s)", resp.StatusCode, data)
	}
	fastURL, _ := NormalizeBackendURL(fast.URL)
	if got := resp.Header.Get("X-Mulayer-Backend"); got != fastURL {
		t.Fatalf("served by %q, want hedge winner %q", got, fastURL)
	}
	if lat > 5*time.Second {
		t.Fatalf("hedge did not rescue the stall: %v", lat)
	}
	if f.mets.hedges.With("won").Value() != 1 {
		t.Fatalf("hedge win not counted")
	}
	select {
	case <-released:
	case <-time.After(3 * time.Second):
		t.Fatal("stalled hedge loser was never cancelled")
	}
}

// TestHedgeBudgetExhausts drains the token bucket and checks further
// hedges are skipped, bounding hedge load.
func TestHedgeBudgetExhausts(t *testing.T) {
	leakCheck(t)
	_, fast := newBackend(t, server.Config{})
	slow := newFakeBackend(t)
	slow.setInfer(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	pin := slow.ts.URL
	f, fts := newTestFrontend(t, Config{
		Backends:    []string{fast.URL, slow.ts.URL},
		ProbeEvery:  20 * time.Millisecond,
		Policy:      pinFirst{url: &pin},
		HedgeBudget: 0.01, // ~no refill
		HedgeBurst:  1,    // one token in the bucket
		HedgeMax:    40 * time.Millisecond,
		// The second request must not wait for the stalled primary
		// forever once its hedge is denied.
		RequestTimeout: 2 * time.Second,
	})

	resp, _ := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first (hedged) request: %d", resp.StatusCode)
	}
	resp, _ = postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("budget-starved request: %d, want 504", resp.StatusCode)
	}
	if f.mets.hedgesSkipped.With("budget").Value() < 1 {
		t.Fatal("budget denial not counted")
	}
}

// TestAdminBackends drives the live add/drain/undrain/remove surface.
func TestAdminBackends(t *testing.T) {
	leakCheck(t)
	_, b1 := newBackend(t, server.Config{})
	_, b2 := newBackend(t, server.Config{})
	f, fts := newTestFrontend(t, Config{
		Backends:   []string{b1.URL},
		ProbeEvery: 20 * time.Millisecond,
	})
	admin := func(action, url string, wantCode int) {
		t.Helper()
		body, _ := json.Marshal(backendAction{Action: action, URL: url})
		resp, err := http.Post(fts.URL+"/admin/backends", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s: %d (%s), want %d", action, url, resp.StatusCode, data, wantCode)
		}
	}

	admin("add", b2.URL, http.StatusOK)
	eventually(t, 2*time.Second, "two healthy backends", func() bool { return f.reg.HealthyCount() == 2 })

	// Draining b1 pins all traffic to b2.
	admin("drain", b1.URL, http.StatusOK)
	b2URL, _ := NormalizeBackendURL(b2.URL)
	for i := 0; i < 4; i++ {
		resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "googlenet"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drained-fleet infer: %d (%s)", resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Mulayer-Backend"); got != b2URL {
			t.Fatalf("drained backend still serving: %q", got)
		}
	}

	admin("undrain", b1.URL, http.StatusOK)
	eventually(t, 2*time.Second, "undrained backend back", func() bool { return f.reg.HealthyCount() == 2 })
	admin("remove", b1.URL, http.StatusOK)
	if n := len(f.reg.Snapshot()); n != 1 {
		t.Fatalf("%d backends after remove", n)
	}
	admin("remove", b1.URL, http.StatusBadRequest) // unknown now
	admin("explode", b2.URL, http.StatusBadRequest)
}

// TestBackendsFileReload checks the config-file path: delisted backends
// drain, newly listed ones join.
func TestBackendsFileReload(t *testing.T) {
	leakCheck(t)
	_, b1 := newBackend(t, server.Config{})
	_, b2 := newBackend(t, server.Config{})
	file := filepath.Join(t.TempDir(), "backends.txt")
	if err := os.WriteFile(file, []byte("# fleet\n"+b1.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, fts := newTestFrontend(t, Config{
		BackendsFile: file,
		ProbeEvery:   20 * time.Millisecond,
	})
	if n := len(f.reg.Snapshot()); n != 1 {
		t.Fatalf("%d backends from file", n)
	}

	// Swap b1 for b2 and reload over HTTP.
	if err := os.WriteFile(file, []byte(b2.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep["added"] != 1 || rep["drained"] != 1 {
		t.Fatalf("reload: %d %+v", resp.StatusCode, rep)
	}
	b1URL, _ := NormalizeBackendURL(b1.URL)
	for _, b := range f.reg.Snapshot() {
		if b.URL == b1URL && !b.Draining {
			t.Fatal("delisted backend not draining")
		}
	}
}

// TestNoBackends: an empty fleet sheds cleanly instead of hanging.
func TestNoBackends(t *testing.T) {
	leakCheck(t)
	f, fts := newTestFrontend(t, Config{ProbeEvery: 50 * time.Millisecond})
	resp, err := http.Get(fts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on empty fleet: %d", resp.StatusCode)
	}
	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer on empty fleet: %d (%s)", resp.StatusCode, data)
	}
	if f.mets.rejected.With("no_backend").Value() != 1 {
		t.Fatal("no_backend rejection not counted")
	}
}

// TestFrontendAtCapacity: the in-flight bound sheds at the frontend
// before the fleet is touched.
func TestFrontendAtCapacity(t *testing.T) {
	leakCheck(t)
	slow := newFakeBackend(t)
	slow.setInfer(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(300 * time.Millisecond):
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"model":"fake"}`)
	})
	f, fts := newTestFrontend(t, Config{
		Backends:    []string{slow.ts.URL},
		ProbeEvery:  50 * time.Millisecond,
		MaxInflight: 1,
		HedgeBudget: 0,
	})

	done := make(chan int, 1)
	go func() {
		// No t helpers off the test goroutine.
		body, _ := json.Marshal(server.InferRequest{Model: "lenet5"})
		resp, err := http.Post(fts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	eventually(t, 2*time.Second, "first request in flight", func() bool {
		return f.proxy.inflight.Load() == 1
	})
	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity request: %d (%s)", resp.StatusCode, data)
	}
	if f.mets.rejected.With("inflight_full").Value() != 1 {
		t.Fatal("capacity rejection not counted")
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("admitted request: %d", code)
	}
}

// TestBackendRejectionPassesThrough: a backend's 503 is the fleet's
// answer — the frontend must not retry it onto other replicas.
func TestBackendRejectionPassesThrough(t *testing.T) {
	leakCheck(t)
	shed := newFakeBackend(t)
	shed.setInfer(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"queue full"}`)
	})
	other := newFakeBackend(t)
	var otherHits int64
	var mu sync.Mutex
	other.setInfer(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		otherHits++
		mu.Unlock()
		io.WriteString(w, `{"model":"fake"}`)
	})
	pin := shed.ts.URL
	_, fts := newTestFrontend(t, Config{
		Backends:    []string{shed.ts.URL, other.ts.URL},
		ProbeEvery:  50 * time.Millisecond,
		Policy:      pinFirst{url: &pin},
		HedgeBudget: 0,
	})
	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request: %d (%s)", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "queue full") {
		t.Fatalf("backend rejection not passed through: %s", data)
	}
	mu.Lock()
	hits := otherHits
	mu.Unlock()
	if hits != 0 {
		t.Fatalf("503 was retried onto another backend %d times", hits)
	}
}

// TestFleetFullInputRow: the frontend forwards a full 1×3×224×224
// mobilenet input row (≈1.6 MB of JSON) under the same body limit as the
// backend, and answers 413 for a body over it.
func TestFleetFullInputRow(t *testing.T) {
	leakCheck(t)
	m, err := models.MobileNetV1(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, b := newBackend(t, server.Config{Models: map[string]*models.Model{"mobilenet": m}})
	_, fts := newTestFrontend(t, Config{Backends: []string{b.URL}, ProbeEvery: 50 * time.Millisecond})

	in := make([]float32, 3*224*224)
	for i := range in {
		in[i] = float32(i%255)/127.5 - 1
	}
	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "mobilenet", Shape: []int{1, 3, 224, 224}, Input: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full row: %d (%s)", resp.StatusCode, data)
	}
	if got, want := resp.Header.Get(server.ChecksumHeader), server.BodyChecksum(data); got != want {
		t.Fatalf("reply checksum %q, body hashes to %q", got, want)
	}
	var rep server.InferResponse
	if err := json.Unmarshal(data, &rep); err != nil || rep.Model != "mobilenet" {
		t.Fatalf("reply %+v (%v)", rep, err)
	}

	r, err := http.Post(fts.URL+"/v1/infer", "application/json", bytes.NewReader(make([]byte, server.MaxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", r.StatusCode)
	}
}

// TestNetFaultsMetric: with a -net-faults transport, /metrics exports
// mulayer_net_faults_injected_total{kind} from the transport's own
// counts. A drop-always config with a budget of three drops exactly
// three requests, however many pass through it (probes included).
func TestNetFaultsMetric(t *testing.T) {
	leakCheck(t)
	fb := newFakeBackend(t)
	host := strings.TrimPrefix(fb.ts.URL, "http://")
	inner := &http.Transport{}
	t.Cleanup(inner.CloseIdleConnections)
	nt := faults.NewTransport(map[string]faults.NetConfig{host: {Seed: 1, DropRate: 1, MaxFaults: 3}}, inner)
	_, fts := newTestFrontend(t, Config{Backends: []string{fb.ts.URL}, ProbeEvery: time.Hour, Transport: nt})
	client := &http.Client{Transport: nt}
	for i := 0; i < 5; i++ {
		if resp, err := client.Get(fb.ts.URL + "/readyz"); err == nil {
			resp.Body.Close()
		}
	}
	resp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, k := range faults.NetKinds {
		want := 0
		if k == faults.Drop {
			want = 3
		}
		if line := fmt.Sprintf("mulayer_net_faults_injected_total{kind=%q} %d\n", k, want); !strings.Contains(string(body), line) {
			t.Errorf("/metrics lacks %q:\n%s", line, body)
		}
	}
}
