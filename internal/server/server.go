package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/server/metrics"
	"mulayer/internal/trace"
)

// mechanisms maps API mechanism names to core mechanisms. NPU mechanisms
// are accepted and fail per-device when the class has no NPU.
var mechanisms = map[string]core.Mechanism{
	"cpu":         core.MechCPUOnly,
	"gpu":         core.MechGPUOnly,
	"l2p":         core.MechLayerToProcessor,
	"chdist":      core.MechChannelDist,
	"pquant":      core.MechChannelDistProcQuant,
	"mulayer":     core.MechMuLayer,
	"npu":         core.MechNPUOnly,
	"mulayer+npu": core.MechMuLayerNPU,
}

// Server is the μLayer inference server: HTTP API + scheduler + pool.
type Server struct {
	cfg   Config
	sched *Scheduler
	reg   *metrics.Registry
	http  *http.Server
	start time.Time

	healthy atomic.Bool

	// traces is the bounded ring of recent request traces served at
	// /debug/traces (nil when tracing is disabled). traceSeq numbers
	// requests for trace ids and the deterministic head sampler; sampleN
	// keeps every Nth request (0 disables head sampling — slow-only).
	traces   *trace.Ring
	traceSeq atomic.Uint64
	sampleN  uint64
}

// New builds a server (pool constructed, workers running) ready to Serve.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	sched, err := NewScheduler(cfg, reg)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, sched: sched, reg: reg, start: time.Now()}
	s.healthy.Store(true)
	if cfg.tracingEnabled() {
		s.traces = trace.NewRing(cfg.TraceRing)
		switch {
		case cfg.TraceSample >= 1:
			s.sampleN = 1
		case cfg.TraceSample > 0:
			s.sampleN = uint64(math.Round(1 / cfg.TraceSample))
		}
	}
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /statusz.json", s.handleStatuszJSON)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	return mux
}

// ListenAndServe serves on the configured address until Shutdown.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve serves on an existing listener (tests bind port 0 themselves).
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown drains gracefully: stop admitting (healthz flips to draining),
// let the pool finish queued work within the drain timeout, then close
// the HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.healthy.Store(false)
	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.sched.Drain(drainCtx)
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return drainErr
}

// InferRequest is the body of POST /v1/infer. The backend decodes it in
// one pass (see unmarshalInferRequest) with encoding/json's semantics
// for these json tags; clients may encode it with encoding/json.
type InferRequest struct {
	// Model names a loaded model (see /v1/models).
	Model string `json:"model"`
	// Mechanism is the execution mechanism (default "mulayer").
	Mechanism string `json:"mechanism,omitempty"`
	// SoC pins the request to one device class; empty lets the scheduler
	// pick any device.
	SoC string `json:"soc,omitempty"`
	// TimeoutMS overrides the server's default request deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Batch is the number of input rows this request contributes to its
	// fused micro-batch (default 1, max 64).
	Batch int `json:"batch,omitempty"`
	// Priority is the request's shedding class: "high", "normal" (default),
	// or "low". Under brownout the lowest class is rejected first; see
	// docs/serving.md.
	Priority string `json:"priority,omitempty"`
	// Shape and Input optionally carry one input row for validation:
	// Shape's element product must match the model's input and Input must
	// hold exactly that many finite values. The serving pool simulates
	// cost only, so the values themselves do not influence the reply.
	Shape []int     `json:"shape,omitempty"`
	Input []float32 `json:"input,omitempty"`
}

// Request validation bounds (shared with FuzzDecodeInferRequest).
const (
	// maxClientRows caps InferRequest.Batch.
	maxClientRows = 64
	// maxInputElems caps the element product of InferRequest.Shape.
	maxInputElems = 1 << 20
	// maxShapeDims caps the rank of InferRequest.Shape.
	maxShapeDims = 8
)

// decodeInferRequest parses and validates one /v1/infer body. Every
// malformed input — bad JSON, wrong field types, negative or oversized
// batches, degenerate or overflowing shapes, non-finite payload values,
// shape/payload length mismatches — returns an error, never a panic (the
// FuzzDecodeInferRequest target holds it to that). Parsing accepts and
// rejects exactly what json.Unmarshal does and fills the same fields
// (FuzzDecodeInferRequestRef holds it to that).
func decodeInferRequest(body []byte) (InferRequest, error) {
	var req InferRequest
	if err := unmarshalInferRequest(body, &req); err != nil {
		return req, fmt.Errorf("bad JSON: %w", err)
	}
	return req, req.validate()
}

// validate checks a decoded request against the documented bounds.
func (req *InferRequest) validate() error {
	if req.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
	}
	if req.Batch < 0 {
		return fmt.Errorf("batch %d is negative", req.Batch)
	}
	if req.Batch > maxClientRows {
		return fmt.Errorf("batch %d exceeds the per-request limit %d", req.Batch, maxClientRows)
	}
	if _, err := ParsePriority(req.Priority); err != nil {
		return err
	}
	if len(req.Shape) == 0 && len(req.Input) > 0 {
		return fmt.Errorf("input payload of %d values has no shape", len(req.Input))
	}
	if len(req.Shape) > 0 {
		if len(req.Shape) > maxShapeDims {
			return fmt.Errorf("shape rank %d exceeds %d", len(req.Shape), maxShapeDims)
		}
		elems := 1
		for _, d := range req.Shape {
			if d < 1 {
				return fmt.Errorf("shape %v has a non-positive dimension", req.Shape)
			}
			if d > maxInputElems/elems {
				return fmt.Errorf("shape %v overflows the %d-element limit", req.Shape, maxInputElems)
			}
			elems *= d
		}
		if len(req.Input) != elems {
			return fmt.Errorf("input holds %d values, shape %v wants %d", len(req.Input), req.Shape, elems)
		}
		for i, v := range req.Input {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("input[%d] is not finite", i)
			}
		}
	}
	return nil
}

// InferResponse is the body of a 200 reply.
type InferResponse struct {
	Model     string `json:"model"`
	Mechanism string `json:"mechanism"`
	SoC       string `json:"soc"`
	Device    string `json:"device"`
	// BatchRows is the total row count of the fused batch that served the
	// request (1 when batching is off or no batchmates arrived in time).
	BatchRows   int     `json:"batch_rows"`
	LatencyUS   float64 `json:"latency_us"`
	EnergyMJ    float64 `json:"energy_mj"`
	QueueWaitUS float64 `json:"queue_wait_us"`
	WallUS      float64 `json:"wall_us"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ChecksumHeader carries the end-to-end integrity checksum of a
// /v1/infer reply body. The fleet frontend recomputes it over the bytes
// it received and treats a mismatch as a transport failure eligible for
// failover, so a corrupting backend or network path can never hand
// garbage to a client.
const ChecksumHeader = "X-Mulayer-Checksum"

// crcTable is CRC-32C (Castagnoli), the common wire-integrity polynomial.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BodyChecksum computes the integrity checksum the serve tier stamps
// and the frontend verifies.
func BodyChecksum(body []byte) string {
	return fmt.Sprintf("crc32c=%08x", crc32.Checksum(body, crcTable))
}

// writeJSONSum is writeJSON plus the integrity stamp: the body is
// marshalled up front so its checksum can ride in a header.
func writeJSONSum(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeJSON(w, code, v)
		return
	}
	body = append(body, '\n') // parity with json.Encoder
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ChecksumHeader, BodyChecksum(body))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	body, err := ReadBody(w, r)
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSONSum(w, code, errorBody{Error: "read body: " + err.Error()})
		return
	}
	req, err := decodeInferRequest(body)
	if err != nil {
		writeJSONSum(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	m, ok := s.cfg.Models[req.Model]
	if !ok {
		writeJSONSum(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown model %q", req.Model)})
		return
	}
	if len(req.Shape) > 0 {
		elems := 1
		for _, d := range req.Shape {
			elems *= d
		}
		if want := m.InputShape.Elems(); elems != want {
			writeJSONSum(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("shape %v carries %d elements, model %q wants %d", req.Shape, elems, req.Model, want)})
			return
		}
	}
	mechName := req.Mechanism
	if mechName == "" {
		mechName = "mulayer"
	}
	mech, ok := mechanisms[mechName]
	if !ok {
		writeJSONSum(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown mechanism %q", mechName)})
		return
	}
	rows := req.Batch
	if rows < 1 {
		rows = 1
	}
	prio, _ := ParsePriority(req.Priority) // validated by decodeInferRequest

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// When tracing is enabled every request records a trace: the head
	// sampler decides up front whether to keep it, and a slow finish keeps
	// it retroactively. The admission span covers body read, validation,
	// and model/mechanism resolution.
	tr := s.newTrace(req.Model, mechName, req.SoC, rows, reqStart)
	if tr != nil {
		tr.Add("admission", 0, 0, tr.Offset(time.Now()))
	}
	out := s.sched.SubmitRequest(ctx, Request{
		ModelName: req.Model, Model: m, Mech: mech, SoC: req.SoC,
		Rows: rows, Priority: prio, Trace: tr,
	})
	wall := time.Since(reqStart)
	if tr != nil {
		s.finishTrace(ctx, tr, out, wall)
	}
	code := statusFor(out.err)
	if out.err != nil {
		if code == http.StatusServiceUnavailable {
			// ±25% jitter decorrelates the retries of clients rejected
			// together, so they do not return as one herd.
			w.Header().Set("Retry-After", fmt.Sprint(jitterRetryAfter(s.sched.RetryAfter(), rand.Float64())))
		}
		writeJSONSum(w, code, errorBody{Error: out.err.Error()})
		return
	}
	writeJSONSum(w, http.StatusOK, InferResponse{
		Model:       req.Model,
		Mechanism:   mechName,
		SoC:         out.class,
		Device:      out.device,
		BatchRows:   out.batchRows,
		LatencyUS:   float64(out.simLat) / float64(time.Microsecond),
		EnergyMJ:    out.energyJ * 1e3,
		QueueWaitUS: float64(out.queueWait) / float64(time.Microsecond),
		WallUS:      float64(wall) / float64(time.Microsecond),
	})
}

// ModelInfo describes one served model.
type ModelInfo struct {
	Name        string `json:"name"`
	Layers      int    `json:"layers"`
	HasBranches bool   `json:"has_branches"`
	SpecOnly    bool   `json:"spec_only"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.cfg.Models))
	for n := range s.cfg.Models {
		names = append(names, n)
	}
	sort.Strings(names)
	out := struct {
		Models     []ModelInfo `json:"models"`
		Mechanisms []string    `json:"mechanisms"`
		SoCs       []string    `json:"socs"`
	}{}
	for _, n := range names {
		m := s.cfg.Models[n]
		out.Models = append(out.Models, ModelInfo{
			Name:        n,
			Layers:      m.Graph.Len(),
			HasBranches: m.HasBranches,
			SpecOnly:    m.SpecOnly,
		})
	}
	for name := range mechanisms {
		out.Mechanisms = append(out.Mechanisms, name)
	}
	sort.Strings(out.Mechanisms)
	for _, spec := range s.cfg.SoCs {
		out.SoCs = append(out.SoCs, spec.Name)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is the liveness probe: the process is up and able to
// answer HTTP. It stays 200 while draining or degraded — readiness
// (/readyz) carries those states, so an orchestrator restarts the process
// only when it is actually wedged, not while it sheds load.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// readyzDevice is one device's health row in /readyz.
type readyzDevice struct {
	Device string `json:"device"`
	SoC    string `json:"soc"`
	// Health is ok | quarantined | probing | dead.
	Health string `json:"health"`
	// Down lists permanently dead processors ("none" when whole).
	Down string `json:"down"`
}

// handleReadyz is the readiness probe: 503 while draining and 503 once
// every pool device is dead; otherwise 200. The body always carries the
// per-device health so an operator can see a partial outage before it
// becomes a total one.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := !s.healthy.Load() || s.sched.Draining()
	allDead := s.sched.AllDead()
	out := struct {
		Ready    bool           `json:"ready"`
		Draining bool           `json:"draining"`
		AllDead  bool           `json:"all_dead"`
		Devices  []readyzDevice `json:"devices"`
	}{
		Ready:    !draining && !allDead,
		Draining: draining,
		AllDead:  allDead,
	}
	for _, d := range s.sched.Devices() {
		h := d.health()
		out.Devices = append(out.Devices, readyzDevice{
			Device: d.name,
			SoC:    d.class,
			Health: h.State.String(),
			Down:   h.Down.String(),
		})
	}
	code := http.StatusOK
	if !out.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, out)
}

// deviceStatus is one device's row in /statusz.
type deviceStatus struct {
	Device    string  `json:"device"`
	SoC       string  `json:"soc"`
	Queued    int64   `json:"queued"`
	BacklogMS float64 `json:"backlog_ms"`
	Served    int64   `json:"served"`
	// Health is ok | quarantined | probing | dead; Down lists permanently
	// dead processors; Failures is the consecutive-failure count feeding
	// the circuit breaker.
	Health   string `json:"health"`
	Down     string `json:"down"`
	Failures int    `json:"failures"`
	// FaultsInjected is the device injector's non-None decision count
	// (absent without injection).
	FaultsInjected int64 `json:"faults_injected,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	devs := s.sched.Devices()
	out := struct {
		UptimeS     float64             `json:"uptime_s"`
		QueueDepth  int                 `json:"queue_depth"`
		QueueCap    int                 `json:"queue_cap"`
		Draining    bool                `json:"draining"`
		TimeScale   float64             `json:"time_scale"`
		MaxBatch    int                 `json:"max_batch"`
		BatchWaitMS float64             `json:"batch_wait_ms"`
		PlanCache   core.PlanCacheStats `json:"plan_cache"`
		// QueueWait and Wall summarize the admission-to-dispatch and
		// admission-to-completion latency histograms (milliseconds).
		QueueWait []latencySummary `json:"queue_wait,omitempty"`
		Wall      []latencySummary `json:"wall,omitempty"`
		// PredictorDrift is the median predicted/actual kernel-time ratio
		// per (processor, layer kind, mechanism); 1.0 is an exact predictor.
		PredictorDrift []driftSummary `json:"predictor_drift,omitempty"`
		Tracing        traceStatus    `json:"tracing"`
		// Overload is the overload-protection state: brownout ladder level,
		// recent queue-wait p95, transition counts, retry-budget tokens.
		Overload OverloadStatus `json:"overload"`
		Devices  []deviceStatus `json:"devices"`
	}{
		UptimeS:        time.Since(s.start).Seconds(),
		QueueDepth:     s.sched.QueueDepth(),
		QueueCap:       s.cfg.QueueDepth,
		Draining:       s.sched.Draining(),
		TimeScale:      s.cfg.TimeScale,
		MaxBatch:       s.cfg.MaxBatch,
		BatchWaitMS:    float64(s.cfg.BatchWait) / float64(time.Millisecond),
		PlanCache:      s.sched.CacheStats(),
		QueueWait:      summarizeLatency(s.sched.mets.queueWait),
		Wall:           summarizeLatency(s.sched.mets.wallLat),
		PredictorDrift: summarizeDrift(s.sched.mets.predErr),
		Tracing:        s.traceStatus(),
		Overload:       s.sched.OverloadStatus(),
	}
	for _, d := range devs {
		h := d.health()
		row := deviceStatus{
			Device:    d.name,
			SoC:       d.class,
			Queued:    d.depth.Load(),
			BacklogMS: float64(d.predictedCompletion()) / float64(time.Millisecond),
			Served:    d.served.Load(),
			Health:    h.State.String(),
			Down:      h.Down.String(),
			Failures:  h.Failures,
		}
		if d.faults != nil {
			row.FaultsInjected = d.faults.Stats().Injected()
		}
		out.Devices = append(out.Devices, row)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = s.reg.WriteTo(w)
}

// ParseMechanism resolves an API mechanism name (exported for the load
// generator and serve binary's flag validation).
func ParseMechanism(name string) (core.Mechanism, error) {
	if name == "" {
		return core.MechMuLayer, nil
	}
	if m, ok := mechanisms[name]; ok {
		return m, nil
	}
	names := make([]string, 0, len(mechanisms))
	for n := range mechanisms {
		names = append(names, n)
	}
	sort.Strings(names)
	return 0, fmt.Errorf("unknown mechanism %q (want %s)", name, strings.Join(names, ", "))
}
