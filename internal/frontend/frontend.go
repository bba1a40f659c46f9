package frontend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"mulayer/internal/faults"
)

// Frontend is the fleet tier: the registry, the proxy data path, and
// the HTTP surface that exposes them.
type Frontend struct {
	cfg   Config
	log   *log.Logger
	reg   *Registry
	proxy *proxy
	mets  *fleetMetrics

	srv *http.Server
}

// New builds a frontend, starting the registry's prober.
func New(cfg Config, logger *log.Logger) (*Frontend, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = log.Default()
	}
	// The healthy-count gauge closes over the registry variable: metrics
	// must exist before the registry (health transitions count through
	// them), the gauge reads the registry built right after.
	var reg *Registry
	mets := newFleetMetrics(func() float64 {
		if reg == nil {
			return 0
		}
		return float64(reg.HealthyCount())
	}, func() float64 {
		if reg == nil {
			return 0
		}
		return float64(reg.EjectedCount())
	})
	if t, ok := cfg.Transport.(*faults.Transport); ok {
		mets.countNetFaults(t)
	}
	reg, err = NewRegistry(cfg, mets)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:   cfg,
		log:   logger,
		reg:   reg,
		proxy: newProxy(cfg, reg, mets),
		mets:  mets,
	}
	return f, nil
}

// Registry exposes the backend registry (admin surfaces, tests).
func (f *Frontend) Registry() *Registry { return f.reg }

// Handler returns the frontend's HTTP surface.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", f.proxy.handleInfer)
	mux.HandleFunc("GET /v1/models", f.handleModels)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /statusz", f.handleStatusz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = f.mets.reg.WriteTo(w)
	})
	mux.HandleFunc("GET /admin/backends", f.handleBackendsGet)
	mux.HandleFunc("POST /admin/backends", f.handleBackendsPost)
	mux.HandleFunc("POST /admin/reload", f.handleReload)
	return mux
}

// ListenAndServe runs the frontend until Shutdown.
func (f *Frontend) ListenAndServe() error {
	f.srv = &http.Server{Addr: f.cfg.Addr, Handler: f.Handler()}
	f.log.Printf("frontend listening on %s (%d backends)", f.cfg.Addr, len(f.reg.Snapshot()))
	err := f.srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight proxied requests (bounded by DrainTimeout)
// and stops the prober.
func (f *Frontend) Shutdown(ctx context.Context) error {
	var err error
	if f.srv != nil {
		dctx, cancel := context.WithTimeout(ctx, f.cfg.DrainTimeout)
		defer cancel()
		err = f.srv.Shutdown(dctx)
	}
	f.reg.Close()
	return err
}

// Close releases background work without an HTTP listener (tests wrap
// Handler in their own server).
func (f *Frontend) Close() { f.reg.Close() }

// handleModels proxies the model catalogue from the best-ranked
// backend — every backend serves the same config, so any healthy one
// answers.
func (f *Frontend) handleModels(w http.ResponseWriter, r *http.Request) {
	ranked, _ := f.reg.Rank("", nil)
	if len(ranked) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no backend available")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.ProbeTimeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ranked[0].url+"/v1/models", nil)
	resp, err := f.proxy.client.Do(req)
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (f *Frontend) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if f.reg.HealthyCount() == 0 {
		httpError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// fleetStatus is the /statusz reply: the fleet view.
type fleetStatus struct {
	Healthy int `json:"healthy"`
	// Ejected is how many backends the latency outlier ejector currently
	// holds out of rotation (their rows carry the per-backend detail).
	Ejected     int             `json:"ejected"`
	Backends    []BackendStatus `json:"backends"`
	Inflight    int64           `json:"inflight"`
	HedgeTokens float64         `json:"hedge_tokens"`
	HedgeDelay  string          `json:"hedge_delay"`
}

func (f *Frontend) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fleetStatus{
		Healthy:     f.reg.HealthyCount(),
		Ejected:     f.reg.EjectedCount(),
		Backends:    f.reg.Snapshot(),
		Inflight:    f.proxy.inflight.Load(),
		HedgeTokens: f.proxy.hedgeTokenLevel(),
		HedgeDelay:  f.proxy.hedgeDelay().String(),
	})
}

func (f *Frontend) handleBackendsGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.reg.Snapshot())
}

// backendAction is the POST /admin/backends body.
type backendAction struct {
	// Action is add | drain | undrain | remove.
	Action string `json:"action"`
	URL    string `json:"url"`
}

func (f *Frontend) handleBackendsPost(w http.ResponseWriter, r *http.Request) {
	var act backendAction
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&act); err != nil {
		httpError(w, http.StatusBadRequest, "decoding action: "+err.Error())
		return
	}
	var err error
	switch act.Action {
	case "add", "undrain":
		_, err = f.reg.Add(act.URL)
	case "drain":
		err = f.reg.Drain(act.URL)
	case "remove":
		err = f.reg.Remove(act.URL)
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown action %q (want add, drain, undrain, or remove)", act.Action))
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.log.Printf("backend set changed: %s %s", act.Action, act.URL)
	writeJSON(w, http.StatusOK, f.reg.Snapshot())
}

func (f *Frontend) handleReload(w http.ResponseWriter, r *http.Request) {
	added, drained, err := f.reg.Reload()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.log.Printf("backends file reloaded: %d added, %d drained", added, drained)
	writeJSON(w, http.StatusOK, map[string]int{"added": added, "drained": drained})
}

// Reload re-reads the backends file (the binary's SIGHUP handler).
func (f *Frontend) Reload() (added, drained int, err error) {
	return f.reg.Reload()
}

// errorBody matches the backend's JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
