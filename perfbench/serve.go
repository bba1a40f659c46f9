package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/exec"
	"mulayer/internal/frontend"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/server"
	"mulayer/internal/sim"
	"mulayer/internal/soc"
)

// backendConfig is mulayer-serve with its binary flag defaults (max-batch
// 8, batch-wait 2ms, queue 256, 2 s deadlines), one device class of two
// Exynos 7420 workers, and the given pacing time scale.
func backendConfig(timescale float64) server.Config {
	return server.Config{
		SoCs:      []server.SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		MaxBatch:  8,
		BatchWait: 2 * time.Millisecond,
		TimeScale: timescale,
	}
}

// costOracle holds the reference a served reply is checked against: a
// cost-only core.Runtime run of the same model and device class at the
// reply's batch row count.
type costOracle struct {
	rt    *core.Runtime
	m     *models.Model
	model string
	rc    core.RunConfig

	mu   sync.Mutex
	reps map[int]sim.Report
}

func newCostOracle(model string, build func(models.Config) (*models.Model, error)) (*costOracle, error) {
	rt, err := core.NewRuntime(soc.Exynos7420())
	if err != nil {
		return nil, err
	}
	m, err := build(models.Config{})
	if err != nil {
		return nil, err
	}
	return &costOracle{rt: rt, m: m, model: model, rc: core.RunConfig{Mechanism: core.MechMuLayer}, reps: map[int]sim.Report{}}, nil
}

func (c *costOracle) report(rows int) (sim.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.reps[rows]; ok {
		return r, nil
	}
	res, err := c.rt.RunBatch(c.m, []exec.FusedItem{{Rows: rows}}, c.rc)
	if err != nil {
		return sim.Report{}, err
	}
	c.reps[rows] = res.Report
	return res.Report, nil
}

// check verifies one /v1/infer reply: status 200, the integrity checksum
// over the received bytes, and simulated latency and energy equal to the
// reference run's for the reply's batch.
func (c *costOracle) check(rec *httptest.ResponseRecorder) (outcome, error) {
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		return outcome{}, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(body))
	}
	if got, want := rec.Header().Get(server.ChecksumHeader), server.BodyChecksum(body); got != want {
		return outcome{}, fmt.Errorf("checksum header %q, body has %q", got, want)
	}
	var r server.InferResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return outcome{}, fmt.Errorf("reply: %w", err)
	}
	if r.Model != c.model || r.BatchRows < 1 {
		return outcome{}, fmt.Errorf("reply for model %q with %d rows", r.Model, r.BatchRows)
	}
	rep, err := c.report(r.BatchRows)
	if err != nil {
		return outcome{}, err
	}
	wantUS := float64(rep.Latency) / float64(time.Microsecond)
	wantMJ := rep.TotalJ() * float64(1) / float64(r.BatchRows) * 1e3
	if r.LatencyUS != wantUS || r.EnergyMJ != wantMJ {
		return outcome{}, fmt.Errorf("reply latency %vus energy %vmJ at %d rows, reference %vus %vmJ",
			r.LatencyUS, r.EnergyMJ, r.BatchRows, wantUS, wantMJ)
	}
	return outcome{ok: true, rep: rep, simLatMS: r.LatencyUS / 1e3, simEnMJ: r.EnergyMJ,
		queueMS: r.QueueWaitUS / 1e3, rows: r.BatchRows}, nil
}

// addPlanMetrics times the served model's planning and its cost-only
// execution walk (the work a backend does per batch once the plan is
// cached), median of five calls each.
func (c *costOracle) addPlanMetrics(vals map[string]float64) error {
	var planMS, walkMS []float64
	var plan *partition.Plan
	for i := 0; i < 5; i++ {
		start := time.Now()
		p, err := c.rt.Plan(c.m, c.rc)
		if err != nil {
			return err
		}
		planMS = append(planMS, ms(time.Since(start)))
		start = time.Now()
		if _, err := c.rt.RunBatchPlan(c.m, p, []exec.FusedItem{{Rows: 1}}, c.rc); err != nil {
			return err
		}
		walkMS = append(walkMS, ms(time.Since(start)))
		plan = p
	}
	sum := plan.Summary()
	vals["partition.plan_ms"] = median(planMS)
	vals["partition.split_layers"] = float64(sum.SplitLayers)
	vals["partition.mean_p"] = sum.MeanP
	vals["exec.self_ms"] = median(walkMS)
	return nil
}

// call sends one request to a handler in process.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func scrape(h http.Handler) string { return call(h, http.MethodGet, "/metrics", nil).Body.String() }

// payloadBodies builds n /v1/infer bodies, each one full 1×3×224×224
// mobilenet input row of seeded values in [-1, 1).
func payloadBodies(seed uint64, n int) ([][]byte, error) {
	rng := rand.New(rand.NewPCG(seed, 0x7061796c))
	out := make([][]byte, n)
	for i := range out {
		in := make([]float32, 3*224*224)
		for j := range in {
			in[j] = float32(rng.Float64()*2 - 1)
		}
		b, err := json.Marshal(server.InferRequest{Model: "mobilenet", SoC: "high", Shape: []int{1, 3, 224, 224}, Input: in})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // a drain timeout leaves nothing to clean up here
}

func runServePayload(o opts, logw io.Writer) (result, error) {
	bodies, err := payloadBodies(o.seed, 8)
	if err != nil {
		return result{}, err
	}
	oracle, err := newCostOracle("mobilenet", models.MobileNetV1)
	if err != nil {
		return result{}, err
	}
	if _, err := oracle.report(1); err != nil { // keep the reference run out of set-up time
		return result{}, err
	}
	srv, setupS, err := medianSetup(o.setups, func() (*server.Server, error) {
		srv, err := server.New(backendConfig(0))
		if err != nil {
			return nil, err
		}
		if _, err := oracle.check(call(srv.Handler(), http.MethodPost, "/v1/infer", bodies[0])); err != nil {
			shutdown(srv)
			return nil, fmt.Errorf("first request: %w", err)
		}
		return srv, nil
	}, shutdown)
	if err != nil {
		return result{}, err
	}
	defer shutdown(srv)

	var tr atomic.Pointer[tracer]
	h := timed(&tr, "server.handler", srv.Handler())
	op := func(i int) outcome {
		body := bodies[i%len(bodies)]
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat := time.Since(start)
		out, err := oracle.check(rec)
		if err != nil {
			fmt.Fprintf(logw, "serve-payload op %d: %v\n", i, err)
		}
		out.start, out.lat = start, lat
		return out
	}
	untraced := closedLoop(o, op)
	if !o.trace {
		return e2eResult(untraced, setupS, srv), nil
	}

	t := newTracer()
	tr.Store(t)
	before := scrape(srv.Handler())
	traced := closedLoop(o, func(i int) outcome {
		out := op(i)
		// Outside the latency window: the decode share of the handler.
		start := time.Now()
		var req server.InferRequest
		if err := json.Unmarshal(bodies[i%len(bodies)], &req); err != nil {
			out.ok = false
		}
		t.record("server.decode_est", "server.handler", i, start)
		return out
	})
	tr.Store(nil)
	after := scrape(srv.Handler())
	if err := t.write(o.out, o.workload, o.seed); err != nil {
		return result{}, err
	}
	vals := map[string]float64{
		"server.handler_ms":    t.meanMS("server.handler"),
		"server.decode_est_ms": t.meanMS("server.decode_est"),
		"loadgen.wall_p50_ms":  percentile(untraced.lat, 0.5),
		"host.calib_ms":        median(untraced.calMS),
		"loadgen.late_ms_p90":  percentile(traced.lateMS, 0.9),
		"trace.overhead_frac":  traced.p50()/untraced.p50() - 1,
	}
	addServerMetrics(vals, traced, []string{before}, []string{after})
	addReportMetrics(vals, traced)
	if err := oracle.addPlanMetrics(vals); err != nil {
		return result{}, err
	}
	return traced.result(layerMetrics(vals)), nil
}

// timed wraps a handler so that, while a tracer is installed, each call
// is recorded as a span called name.
func timed(tr *atomic.Pointer[tracer], name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if t := tr.Load(); t != nil {
			t.record(name, "", 0, start)
		}
	})
}

// addServerMetrics adds the backend-side layer metrics of a traced phase:
// reply fields, and /metrics counter deltas summed over backends.
func addServerMetrics(vals map[string]float64, p *phase, before, after []string) {
	vals["server.queue_wait_ms"] = mean(p.queueMS)
	vals["server.batch_rows_mean"] = mean(p.rows)
	var rejects, hits, misses float64
	for i := range after {
		delta := func(name string) float64 { return promSum(after[i], name) - promSum(before[i], name) }
		rejects += delta("mulayer_rejected_total") + delta("mulayer_admission_rejects_total")
		hits += delta("mulayer_plan_cache_hits_total")
		misses += delta("mulayer_plan_cache_misses_total")
	}
	vals["server.rejects"] = rejects
	vals["core.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
}

// Fleet shape and offered load of serve-paced.
const (
	fleetBackends  = 2
	fleetWorkers   = 2 // per backend, one device class
	fleetTimescale = 10
	// pacedLoad is the offered load as a share of the pool's predicted
	// capacity (workers × time scale ÷ predicted latency).
	pacedLoad = 0.5
	// pacedLimit is the latency limit a paced op must meet to count as
	// goodput.
	pacedLimit = 100 * time.Millisecond
)

var pacedBody = []byte(`{"model":"googlenet","soc":"high"}`)

// fleet is serve-paced's system: backends listening on loopback and the
// frontend, whose handler the generator calls in process.
type fleet struct {
	backends  []*server.Server
	listeners []*http.Server
	transport *http.Transport
	fe        *frontend.Frontend
	h         http.Handler
	tr        atomic.Pointer[tracer]
	serving   sync.WaitGroup
	// conns counts open backend connections.
	conns atomic.Int64
}

// countConn is the backends' http.Server ConnState hook.
func (f *fleet) countConn(_ net.Conn, s http.ConnState) {
	switch s {
	case http.StateNew:
		f.conns.Add(1)
	case http.StateClosed, http.StateHijacked:
		f.conns.Add(-1)
	}
}

// closeIdle closes the frontend's pooled backend connections and waits
// (up to five seconds) until the backends have seen them close, so that
// live_heap_mb does not depend on how many connections the run's peak
// concurrency opened.
func (f *fleet) closeIdle() {
	for deadline := time.Now().Add(5 * time.Second); f.conns.Load() > 0 && time.Now().Before(deadline); {
		f.transport.CloseIdleConnections()
		time.Sleep(5 * time.Millisecond)
	}
}

func setupFleet(oracle *costOracle) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < fleetBackends; i++ {
		srv, err := server.New(backendConfig(fleetTimescale))
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		hs := &http.Server{Handler: timed(&f.tr, "server.handler", srv.Handler()), ReadHeaderTimeout: 5 * time.Second, ConnState: f.countConn}
		f.listeners = append(f.listeners, hs)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = hs.Serve(l) // returns ErrServerClosed on close
		}()
		urls = append(urls, "http://"+l.Addr().String())
	}
	// The frontend's binary flag defaults; the transport is built here only
	// so teardown can close its idle connections.
	f.transport = frontend.NewHTTPTransport(2*time.Second, 15*time.Second, 32)
	fe, err := frontend.New(frontend.Config{Backends: urls, HedgeBudget: 0.1, Transport: f.transport}, log.New(io.Discard, "", 0))
	if err != nil {
		f.close()
		return nil, err
	}
	f.fe, f.h = fe, fe.Handler()
	if _, err := oracle.check(call(f.h, http.MethodPost, "/v1/infer", pacedBody)); err != nil {
		f.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return f, nil
}

// close stops the frontend, the listeners and the backends, and waits
// for the serving goroutines.
func (f *fleet) close() {
	if f.fe != nil {
		f.fe.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, hs := range f.listeners {
		_ = hs.Shutdown(ctx) // bounded by ctx; nothing else to release
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, srv := range f.backends {
		shutdown(srv)
	}
	f.serving.Wait()
}

func runServePaced(o opts, logw io.Writer) (result, error) {
	oracle, err := newCostOracle("googlenet", models.GoogLeNet)
	if err != nil {
		return result{}, err
	}
	rep, err := oracle.report(1)
	if err != nil {
		return result{}, err
	}
	rate := pacedLoad * fleetBackends * fleetWorkers * fleetTimescale / rep.Latency.Seconds()
	f, setupS, err := medianSetup(o.setups, func() (*fleet, error) { return setupFleet(oracle) }, (*fleet).close)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	fmt.Fprintf(logw, "serve-paced: %.1f req/s offered (%.0f%% of predicted capacity)\n", rate, 100*pacedLoad)

	var t *tracer
	op := func(i int) outcome {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(pacedBody))
		rec := httptest.NewRecorder()
		start := time.Now()
		f.h.ServeHTTP(rec, req)
		t.record("frontend.handler", "", i, start)
		out, err := oracle.check(rec)
		if err != nil {
			fmt.Fprintf(logw, "serve-paced op %d: %v\n", i, err)
		}
		return out
	}
	untraced := openLoop(o, rate, pacedLimit, op)
	if !o.trace {
		f.closeIdle()
		return e2eResult(untraced, setupS, f), nil
	}

	t = newTracer()
	f.tr.Store(t)
	scrapeAll := func() (backends []string, fe string) {
		for _, srv := range f.backends {
			backends = append(backends, scrape(srv.Handler()))
		}
		return backends, scrape(f.h)
	}
	beforeB, beforeF := scrapeAll()
	traced := openLoop(o, rate, pacedLimit, op)
	afterB, afterF := scrapeAll()
	f.tr.Store(nil)
	if err := t.write(o.out, o.workload, o.seed); err != nil {
		return result{}, err
	}
	fdelta := func(name string, labels ...string) float64 {
		return promSum(afterF, name, labels...) - promSum(beforeF, name, labels...)
	}
	var decode []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		var req server.InferRequest
		_ = json.Unmarshal(pacedBody, &req) // the body is a constant known to decode
		decode = append(decode, ms(time.Since(start)))
	}
	vals := map[string]float64{
		"server.handler_ms":       t.meanMS("server.handler"),
		"server.decode_est_ms":    median(decode),
		"frontend.self_ms":        t.meanMS("frontend.handler") - t.meanMS("server.handler"),
		"frontend.hedge_ratio":    ratio(fdelta("mulayer_frontend_hedges_total"), float64(traced.attempted)),
		"frontend.affinity_share": ratio(fdelta("mulayer_frontend_routing_total", `reason="affinity"`), fdelta("mulayer_frontend_routing_total")),
		"frontend.retries":        fdelta("mulayer_frontend_retries_total"),
		"loadgen.wall_p50_ms":     percentile(untraced.lat, 0.5),
		"host.calib_ms":           median(untraced.calMS),
		"loadgen.late_ms_p90":     percentile(traced.lateMS, 0.9),
		"trace.overhead_frac":     traced.p50()/untraced.p50() - 1,
	}
	addServerMetrics(vals, traced, beforeB, afterB)
	addReportMetrics(vals, traced)
	if err := oracle.addPlanMetrics(vals); err != nil {
		return result{}, err
	}
	return traced.result(layerMetrics(vals)), nil
}
