package frontend

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mulayer/internal/breaker"
	"mulayer/internal/dispatch"
	"mulayer/internal/server"
)

// backend is one serve replica in the registry. Health and load fields
// are guarded by the registry mutex; counters are atomics so the hot
// proxy path touches no lock for accounting.
type backend struct {
	url string // normalized base URL; the backend's identity everywhere

	// Guarded by Registry.mu. Probe and passive failures share the
	// breaker's failure run.
	br       breaker.Breaker
	draining bool // admin drain: no new traffic, health still tracked

	// Load signal from the last ready /readyz probe that decoded, plus
	// the passive latency EWMA. Guarded by Registry.mu.
	sigAt time.Time
	sig   server.LoadSignal
	ewma  time.Duration // observed proxied-request latency EWMA (2xx only)

	// Outlier-ejection state: a sliding window of served (2xx) latencies
	// whose p95 the ejector compares against the fleet median, the time
	// the backend first looked like an outlier, and the per-backend
	// ejection backoff (doubling per re-ejection, Envoy-style). Guarded
	// by Registry.mu.
	lats         dispatch.Window
	slowSince    time.Time
	ejected      bool
	ejections    int64
	ejectBackoff time.Duration

	// Lock-free counters.
	inflight atomic.Int64 // proxied requests currently in flight here
	served   atomic.Int64 // 2xx replies proxied from this backend
	errors   atomic.Int64 // transport errors observed against it
}

// ejectWindow is how many served latencies a backend's ejector window
// keeps.
const ejectWindow = 64

// Registry is the fleet's backend set: membership (add/drain/remove +
// file reload), health (active probes + passive observations through the
// shared internal/breaker circuit), and the per-backend load signal
// the placement policy ranks by.
type Registry struct {
	cfg    Config
	mets   *fleetMetrics
	client *http.Client // probe client (bounded by ProbeTimeout)

	mu       sync.Mutex
	backends map[string]*backend
	// noQuorumSince is when the ejector last lost its quorum of
	// measured backends (zero while it has one); the hold timers are
	// shifted by the time without quorum. Guarded by mu.
	noQuorumSince time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRegistry builds the registry with the configured initial backends
// and starts the prober. cfg must already carry defaults.
func NewRegistry(cfg Config, mets *fleetMetrics) (*Registry, error) {
	r := &Registry{
		cfg:  cfg,
		mets: mets,
		// Probes share the proxy's tuned (or fault-injected) transport:
		// the network the prober sees is the network requests ride.
		client:   &http.Client{Timeout: cfg.ProbeTimeout, Transport: cfg.Transport},
		backends: make(map[string]*backend),
		stop:     make(chan struct{}),
	}
	urls := append([]string(nil), cfg.Backends...)
	if cfg.BackendsFile != "" {
		fromFile, err := ReadBackendsFile(cfg.BackendsFile)
		if err != nil {
			return nil, err
		}
		urls = append(urls, fromFile...)
	}
	for _, u := range urls {
		if _, err := r.Add(u); err != nil {
			return nil, err
		}
	}
	r.wg.Add(1)
	go r.probeLoop()
	return r, nil
}

// Close stops the prober.
func (r *Registry) Close() {
	close(r.stop)
	r.wg.Wait()
}

// NormalizeBackendURL validates a backend address and returns its
// canonical form: scheme defaulted to http, no trailing slash, no path.
func NormalizeBackendURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", fmt.Errorf("frontend: empty backend URL")
	}
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("frontend: backend URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("frontend: backend URL %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("frontend: backend URL %q has no host", raw)
	}
	if u.Path != "" && u.Path != "/" {
		return "", fmt.Errorf("frontend: backend URL %q must not carry a path", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// ReadBackendsFile parses a backends file: one URL per line, blank lines
// and '#' comments skipped.
func ReadBackendsFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("frontend: backends file: %w", err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("frontend: backends file: %w", err)
	}
	return out, nil
}

// Add registers a backend (idempotent) or un-drains an existing one. It
// returns the normalized URL. A new backend starts healthy and is
// corrected by the next probe round if it is not.
func (r *Registry) Add(raw string) (string, error) {
	u, err := NormalizeBackendURL(raw)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.backends[u]; ok {
		if b.draining {
			b.draining = false
			r.mets.health.With(u, "undrained").Inc()
		}
		return u, nil
	}
	r.backends[u] = &backend{url: u, lats: dispatch.NewWindow(ejectWindow)}
	r.mets.health.With(u, "added").Inc()
	return u, nil
}

// Drain marks a backend as taking no new traffic; requests in flight
// finish. Health keeps being tracked so an undrained backend returns at
// its true state.
func (r *Registry) Drain(raw string) error {
	u, err := NormalizeBackendURL(raw)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.backends[u]
	if !ok {
		return fmt.Errorf("frontend: unknown backend %q", u)
	}
	if !b.draining {
		b.draining = true
		r.mets.health.With(u, "drained").Inc()
	}
	return nil
}

// Remove deregisters a backend entirely. Requests in flight to it
// finish (the proxy holds its own pointer); it just stops being a
// routing candidate and drops out of status views.
func (r *Registry) Remove(raw string) error {
	u, err := NormalizeBackendURL(raw)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.backends[u]; !ok {
		return fmt.Errorf("frontend: unknown backend %q", u)
	}
	delete(r.backends, u)
	r.mets.health.With(u, "removed").Inc()
	return nil
}

// Reload re-reads the backends file: URLs now listed are added (or
// un-drained), registered URLs no longer listed are drained. It returns
// how many backends were added and drained.
func (r *Registry) Reload() (added, drained int, err error) {
	if r.cfg.BackendsFile == "" {
		return 0, 0, fmt.Errorf("frontend: no backends file configured")
	}
	urls, err := ReadBackendsFile(r.cfg.BackendsFile)
	if err != nil {
		return 0, 0, err
	}
	want := make(map[string]bool, len(urls))
	for _, raw := range urls {
		u, err := NormalizeBackendURL(raw)
		if err != nil {
			return added, drained, err
		}
		want[u] = true
	}
	r.mu.Lock()
	var current []string
	for u, b := range r.backends {
		if !b.draining {
			current = append(current, u)
		}
	}
	r.mu.Unlock()
	for u := range want {
		if _, err := r.Add(u); err != nil {
			return added, drained, err
		}
		added++
	}
	for _, u := range current {
		if !want[u] {
			if err := r.Drain(u); err != nil {
				return added, drained, err
			}
			drained++
		}
	}
	return added, drained, nil
}

// HealthyCount is the number of routable backends (ok and not
// draining) — the frontend's readiness signal.
func (r *Registry) HealthyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.backends {
		if b.br.State() == breaker.OK && !b.draining {
			n++
		}
	}
	return n
}

// EjectedCount is the number of backends currently out of rotation by
// decision of the latency outlier ejector.
func (r *Registry) EjectedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.backends {
		if b.ejected {
			n++
		}
	}
	return n
}

// Rank returns the routable backends in the placement policy's
// preference order for one model, with the policy's reasons. exclude
// drops backends already tried by this request's failovers.
func (r *Registry) Rank(model string, exclude map[string]bool) ([]*backend, []dispatch.Decision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pool := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		if b.br.State() == breaker.OK && !b.draining && !exclude[b.url] {
			pool = append(pool, b)
		}
	}
	// Map iteration order is random; candidates must be stable for the
	// policy's deterministic tie-breaks.
	sort.Slice(pool, func(i, j int) bool { return pool[i].url < pool[j].url })
	cands := make([]dispatch.Candidate, len(pool))
	for i, b := range pool {
		cands[i] = dispatch.Candidate{ID: b.url, Done: b.predictedLoadLocked()}
	}
	ranked := r.cfg.Policy.Rank(model, cands)
	out := make([]*backend, len(ranked))
	for i, d := range ranked {
		out[i] = pool[d.Index]
	}
	return out, ranked
}

// predictedLoadLocked is the backend's predicted completion for new
// work: the backend-reported predicted wait (the scheduler's exact
// forward predictor; 0 is a real "idle" report, so affinity decides
// idle fleets) plus one latency EWMA per request this frontend still
// has outstanding there. The outstanding term is the fleet's
// join-shortest-queue signal: it falls as a backend completes or
// rejects work, so between probes requests flow to the replica with
// free queue slots instead of herding onto a stale minimum. Caller
// holds Registry.mu.
func (b *backend) predictedLoadLocked() time.Duration {
	return time.Duration(b.sig.PredictedWaitMS*float64(time.Millisecond)) + time.Duration(b.inflight.Load())*b.ewma
}

// observeSuccess records a proxied reply: consecutive failures reset,
// and — as on the node, where a real served batch is stronger evidence
// than a probe — a quarantined or probing backend recovers. Only a
// served (2xx) reply updates the latency EWMA: an instant 503 from a
// shedding backend is admission policy, not service time, and folding
// it in would make the most overloaded backend look like the fastest
// one.
func (r *Registry) observeSuccess(b *backend, lat time.Duration, served bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if served {
		if b.ewma == 0 {
			b.ewma = lat
		} else {
			b.ewma = (b.ewma*4 + lat) / 5
		}
		// Feed the ejector's window: served replies only, for the same
		// reason as the EWMA — a shedding backend's instant 503s are not
		// service time. Not while ejected, though: stragglers from before
		// the ejection are faulted-era evidence, and readmission should
		// judge the backend on a fresh window.
		if !b.ejected {
			b.lats.Add(time.Now(), lat)
		}
	}
	// An ejected backend's replies are successful by construction — it
	// was removed for being slow, not broken, so the legs in flight when
	// it was ejected all land as 2xx moments later. Those must not
	// short-circuit the ejection backoff; readmission is the half-open
	// probe's decision once the backoff expires.
	if b.ejected {
		b.br.ResetFailures()
		return
	}
	r.recoverLocked(b)
}

// recoverLocked closes the circuit on fresh positive evidence,
// distinguishing a readmitted ejection from an ordinary recovery.
// Caller holds Registry.mu.
func (r *Registry) recoverLocked(b *backend) {
	if !b.br.Succeed() {
		return
	}
	if b.ejected {
		b.ejected = false
		r.mets.health.With(b.url, "readmitted").Inc()
		return
	}
	r.mets.health.With(b.url, "recovered").Inc()
}

// latP95Locked is the p95 of the backend's served-latency window (0
// with no samples). Caller holds Registry.mu.
func (b *backend) latP95Locked() time.Duration {
	p95, _ := b.lats.P95(time.Time{})
	return p95
}

// observeFailure records one failure against the circuit breaker —
// passive (a transport error proxying to it) and active (a failed
// probe) share the failure run. At FailThreshold consecutive failures,
// or any failure while half-open, the backend quarantines with a
// doubling, jittered backoff.
func (r *Registry) observeFailure(b *backend, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b.br.Fail(r.cfg.breakerPolicy(), now, rand.Float64()) {
		r.mets.health.With(b.url, "quarantined").Inc()
	}
}

// evaluateEjections is the outlier ejector, run once per probe round:
// any routable backend whose served-latency p95 has exceeded
// EjectFactor × the fleet median p95 for EjectHold is ejected into the
// quarantine machinery — it answers /readyz, so only passive latency
// evidence can take it out of rotation.
//
// The median is taken over every measured backend that is not ejected
// or draining, breaker-quarantined ones included: a circuit opened by a
// lossy network says nothing about how fast the backend serves, and
// dropping those from the median would let transport blips starve the
// ejector of quorum. For the same reason a missing quorum pauses the
// hold timers rather than resetting them: time without quorum does not
// count toward EjectHold. Ejection is bounded: it must leave at least
// as many backends routable as ejected. That caps ejection at half the
// fleet (Envoy's max-ejection cap) and, when the breaker holds members
// out, at half of what it leaves in rotation, so the ejector never
// empties the fleet, even when a survivor slows under the load it
// inherits and looks slow against quarantined members' stale windows.
// A fleet-wide
// slowdown (overload, not grayness) moves the median and ejects nobody.
func (r *Registry) evaluateEjections(now time.Time) {
	if r.cfg.EjectFactor < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var p95s []time.Duration
	var cands []*backend
	routable, ejected := 0, 0
	for _, b := range r.backends {
		switch {
		case b.draining:
		case b.ejected:
			ejected++
		case b.br.State() == breaker.OK:
			routable++
		}
		if b.ejected || b.draining || b.lats.Len() < r.cfg.EjectMinSamples {
			continue
		}
		p95s = append(p95s, b.latP95Locked())
		cands = append(cands, b)
	}
	// A median needs company: with fewer than 3 measured backends an
	// "outlier" is indistinguishable from a legitimately bimodal pair.
	if len(cands) < 3 {
		if r.noQuorumSince.IsZero() {
			r.noQuorumSince = now
		}
		return
	}
	if !r.noQuorumSince.IsZero() {
		paused := now.Sub(r.noQuorumSince)
		for _, b := range r.backends {
			if !b.slowSince.IsZero() {
				b.slowSince = b.slowSince.Add(paused)
			}
		}
		r.noQuorumSince = time.Time{}
	}
	sorted := append([]time.Duration(nil), p95s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return
	}
	for i, b := range cands {
		slow := float64(p95s[i]) > r.cfg.EjectFactor*float64(median)
		if !slow {
			b.slowSince = time.Time{}
			continue
		}
		if b.slowSince.IsZero() {
			b.slowSince = now
			continue
		}
		// Only a routable backend is ejected; one the breaker holds out
		// keeps its hold timer and is judged again once it is back.
		if b.br.State() != breaker.OK || now.Sub(b.slowSince) < r.cfg.EjectHold {
			continue
		}
		if ejected+1 > routable-1 {
			continue
		}
		r.ejectLocked(b, now)
		routable--
		ejected++
	}
}

// ejectLocked takes one gray-slow backend out of rotation by tripping
// its breaker for the next step of its own ejection backoff, which
// doubles per re-ejection and is never reset. The latency window resets
// so readmission starts from fresh evidence. Caller holds Registry.mu.
func (r *Registry) ejectLocked(b *backend, now time.Time) {
	b.ejectBackoff = breaker.Backoff{Base: r.cfg.EjectBackoff, Max: r.cfg.backoffCap()}.Next(b.ejectBackoff)
	b.br.Trip(r.cfg.breakerPolicy(), now, b.ejectBackoff, rand.Float64())
	b.ejected = true
	b.ejections++
	b.slowSince = time.Time{}
	b.lats.Reset()
	r.mets.health.With(b.url, "ejected").Inc()
	r.mets.ejections.With(b.url).Inc()
}

// probeLoop is the active prober: every ProbeEvery it sends each backend
// one GET /readyz, concurrently — the status code drives the breaker and
// a ready body refreshes the load signal — and half-opens quarantined
// backends whose backoff expired.
func (r *Registry) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.probeRound(now)
		}
	}
}

// probeRound probes every backend once, in parallel, and waits the
// round out (the per-probe timeout bounds it).
func (r *Registry) probeRound(now time.Time) {
	r.mu.Lock()
	targets := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		if !b.br.Ready(now) {
			continue
		}
		// Half-open: this round's probe is the circuit's test.
		if b.br.Claim() {
			r.mets.health.With(b.url, "probing").Inc()
		}
		targets = append(targets, b)
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, b := range targets {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			r.probeOne(b, now)
		}(b)
	}
	wg.Wait()

	// With this round's evidence in, look for gray-slow outliers.
	r.evaluateEjections(now)
}

// probeOne sends one backend its round's GET /readyz: a 200 is a
// successful probe, and its body, the backend's load signal, replaces
// the last one. A 200 whose body does not decode still counts as ready;
// routing then keeps the previous signal and the passive inflight×EWMA
// term.
func (r *Registry) probeOne(b *backend, now time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	resp, err := r.client.Do(req)
	if err == nil {
		defer resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		r.mets.probeFailures.With(b.url).Inc()
		r.observeFailure(b, now)
		return
	}
	var sig server.LoadSignal
	decodeErr := json.NewDecoder(resp.Body).Decode(&sig)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recoverLocked(b)
	if decodeErr == nil {
		b.sigAt, b.sig = time.Now(), sig
	}
}

// BackendStatus is one backend's row in the frontend's /statusz and
// /admin/backends views.
type BackendStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
	// Draining: taking no new traffic by admin decision.
	Draining bool `json:"draining,omitempty"`
	Failures int  `json:"failures,omitempty"`
	// Ejected: quarantined by the latency outlier ejector (still answers
	// probes, too slow to keep in rotation). Ejections counts lifetime
	// ejections of this backend.
	Ejected   bool  `json:"ejected,omitempty"`
	Ejections int64 `json:"ejections,omitempty"`
	// Inflight is this frontend's requests currently proxied there.
	Inflight int64 `json:"inflight"`
	Served   int64 `json:"served"`
	// TransportErrors counts dial/read failures proxying to it.
	TransportErrors int64 `json:"transport_errors,omitempty"`
	// Load signal from the last ready /readyz probe.
	QueueWaitP95MS  float64 `json:"queue_wait_p95_ms"`
	PredictedWaitMS float64 `json:"predicted_wait_ms"`
	BacklogMS       float64 `json:"backlog_ms"`
	QueueDepth      int     `json:"queue_depth"`
	OverloadLevel   int     `json:"overload_level"`
	// SignalAgeMS is how stale that signal is (-1 before the first probe).
	SignalAgeMS float64 `json:"signal_age_ms"`
	// EwmaMS is the observed proxied-latency EWMA; LatP95MS is the p95 of
	// the served-latency window the outlier ejector judges by.
	EwmaMS   float64 `json:"ewma_ms"`
	LatP95MS float64 `json:"lat_p95_ms"`
	// PredictedLoadMS is what the placement policy currently ranks by.
	PredictedLoadMS float64 `json:"predicted_load_ms"`
}

// Snapshot lists every backend's status, sorted by URL.
func (r *Registry) Snapshot() []BackendStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BackendStatus, 0, len(r.backends))
	for _, b := range r.backends {
		st := BackendStatus{
			URL:             b.url,
			State:           b.br.State().String(),
			Draining:        b.draining,
			Failures:        b.br.Failures(),
			Ejected:         b.ejected,
			Ejections:       b.ejections,
			Inflight:        b.inflight.Load(),
			Served:          b.served.Load(),
			TransportErrors: b.errors.Load(),
			QueueWaitP95MS:  b.sig.QueueWaitP95MS,
			PredictedWaitMS: b.sig.PredictedWaitMS,
			BacklogMS:       b.sig.BacklogMS,
			QueueDepth:      b.sig.QueueDepth,
			OverloadLevel:   b.sig.OverloadLevel,
			SignalAgeMS:     -1,
			EwmaMS:          float64(b.ewma) / float64(time.Millisecond),
			LatP95MS:        float64(b.latP95Locked()) / float64(time.Millisecond),
			PredictedLoadMS: float64(b.predictedLoadLocked()) / float64(time.Millisecond),
		}
		if !b.sigAt.IsZero() {
			st.SignalAgeMS = float64(time.Since(b.sigAt)) / float64(time.Millisecond)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
