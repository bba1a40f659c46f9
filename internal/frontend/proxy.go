package frontend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mulayer/internal/dispatch"
	"mulayer/internal/server"
)

// proxy is the /v1/infer data path: admission, ranked routing with
// transport-failure failover, and budgeted hedging.
type proxy struct {
	cfg    Config
	reg    *Registry
	mets   *fleetMetrics
	client *http.Client

	inflight atomic.Int64

	// Hedge budget token bucket: completed requests accrue HedgeBudget
	// tokens (capped at HedgeBurst), each hedge spends one.
	hedgeMu     sync.Mutex
	hedgeTokens float64

	// Recent end-to-end latencies; the hedge delay tracks their p95.
	latMu sync.Mutex
	lats  dispatch.Window
}

func newProxy(cfg Config, reg *Registry, mets *fleetMetrics) *proxy {
	return &proxy{
		cfg:  cfg,
		reg:  reg,
		mets: mets,
		// No client-level timeout: the per-request context carries the
		// deadline, and a hedge loser must die by cancellation, not by
		// running out its own clock. The tuned transport (dial and
		// response-header timeouts) bounds the hangs a context cannot
		// see, like a dial against a black-holed backend.
		client:      &http.Client{Transport: cfg.Transport},
		hedgeTokens: float64(cfg.HedgeBurst),
		lats:        dispatch.NewWindow(256),
	}
}

// legResult is one attempt's outcome against one backend: either a
// buffered response or a transport error.
type legResult struct {
	b      *backend
	status int
	header http.Header
	body   []byte
	err    error
	lat    time.Duration
}

// decisive reports whether the leg settles the request: any reply below
// 500. 5xx replies are held as fallbacks — a hedge or failover may
// still produce a real answer.
func (r *legResult) decisive() bool {
	return r.err == nil && r.status < http.StatusInternalServerError
}

func (p *proxy) handleInfer(w http.ResponseWriter, r *http.Request) {
	// The body is buffered once so failover and hedge legs can replay it,
	// under the same size limit the backends enforce.
	body, err := server.ReadBody(w, r)
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body too large")
			return
		}
		httpError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	// The routing key and latency label come from the request; everything
	// else in the body is the backend's business.
	model := server.PeekModel(body)

	if err := (dispatch.BoundedQueue{}).Admit(dispatch.QueueState{
		Depth: int(p.inflight.Load()),
		Cap:   p.cfg.MaxInflight,
	}); err != nil {
		p.mets.rejected.With("inflight_full").Inc()
		httpError(w, http.StatusServiceUnavailable, "frontend at capacity")
		return
	}
	p.inflight.Add(1)
	p.mets.inflight.Add(1)
	defer func() {
		p.inflight.Add(-1)
		p.mets.inflight.Add(-1)
		p.accrueHedgeTokens()
	}()

	ctx, cancel := context.WithTimeout(r.Context(), p.cfg.RequestTimeout)
	defer cancel()

	start := time.Now()
	tried := make(map[string]bool)
	var fallback *legResult
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		ranked, decisions := p.reg.Rank(model, tried)
		if len(ranked) == 0 {
			break
		}
		if attempt == 0 {
			p.mets.routing.With(decisions[0].Reason).Inc()
		} else {
			p.mets.retries.Inc()
		}
		win, fb := p.attemptWithHedge(ctx, ranked, body, tried)
		if fb != nil && fallback == nil {
			fallback = fb
		}
		if win != nil {
			lat := time.Since(start)
			p.observeLatency(lat)
			p.mets.latency.With(model).Observe(lat.Seconds())
			writeLeg(w, win)
			return
		}
		if fb != nil {
			// A reply, just not a good one: pass the backend's rejection
			// through. Retrying a shedding backend's 503 elsewhere would
			// amplify exactly the overload it protects against.
			break
		}
		if ctx.Err() != nil {
			break
		}
		// Pure transport failure: fail over to the next-ranked backend.
	}
	switch {
	case fallback != nil:
		writeLeg(w, fallback)
	case ctx.Err() != nil:
		p.mets.rejected.With("timeout").Inc()
		httpError(w, http.StatusGatewayTimeout, "request timed out")
	default:
		p.mets.rejected.With("no_backend").Inc()
		httpError(w, http.StatusServiceUnavailable, "no backend available")
	}
}

// attemptWithHedge runs one routed attempt: the primary leg on
// ranked[0] and, after the hedge delay, a budgeted hedge on ranked[1].
// The first decisive response wins and the other leg is cancelled.
// Every launched backend is marked in tried. Returns the winning leg,
// or a held 5xx fallback when no leg was decisive.
func (p *proxy) attemptWithHedge(ctx context.Context, ranked []*backend, body []byte, tried map[string]bool) (win, fallback *legResult) {
	// Buffered to the max leg count: a cancelled loser always completes
	// its send and releases its goroutine and connection.
	results := make(chan *legResult, 2)
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	launch := func(b *backend) {
		tried[b.url] = true
		lctx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() { results <- p.doLeg(lctx, b, body) }()
	}
	launch(ranked[0])
	pending := 1

	var hedgeC <-chan time.Time
	switch {
	case p.cfg.HedgeBudget == 0:
		p.mets.hedgesSkipped.With("disabled").Inc()
	case len(ranked) < 2:
		p.mets.hedgesSkipped.With("no_backend").Inc()
	default:
		t := time.NewTimer(p.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	hedged := false
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.decisive() {
				if hedged {
					if res.b == ranked[0] {
						p.mets.hedges.With("lost").Inc()
					} else {
						p.mets.hedges.With("won").Inc()
					}
				}
				return res, fallback
			}
			if res.err == nil && fallback == nil {
				fallback = res
			}
		case <-hedgeC:
			hedgeC = nil
			if !p.spendHedgeToken() {
				p.mets.hedgesSkipped.With("budget").Inc()
				continue
			}
			hedged = true
			launch(ranked[1])
			pending++
		case <-ctx.Done():
			return nil, fallback
		}
	}
	if hedged {
		p.mets.hedges.With("failed").Inc()
	}
	return nil, fallback
}

// doLeg proxies the request once to one backend, buffering the reply.
func (p *proxy) doLeg(ctx context.Context, b *backend, body []byte) *legResult {
	start := time.Now()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return &legResult{b: b, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		p.legFailure(ctx, b, err)
		return &legResult{b: b, err: err}
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		p.legFailure(ctx, b, err)
		return &legResult{b: b, err: err}
	}
	if reason, err := verifyIntegrity(resp, reply); err != nil {
		// A corrupted or truncated reply is decisive evidence against
		// this leg, never against the client: book it like a transport
		// failure so the request fails over to another backend.
		p.mets.integrityFailures.With(b.url, reason).Inc()
		p.legFailure(ctx, b, err)
		return &legResult{b: b, err: err}
	}
	lat := time.Since(start)
	served := resp.StatusCode < http.StatusMultipleChoices
	p.reg.observeSuccess(b, lat, served)
	p.mets.requests.With(b.url, codeClass(resp.StatusCode)).Inc()
	if served {
		b.served.Add(1)
	}
	return &legResult{
		b:      b,
		status: resp.StatusCode,
		header: resp.Header,
		body:   reply,
		lat:    lat,
	}
}

// legFailure books a transport error against the breaker — unless the
// leg was cancelled (a hedge loser, or the caller's own deadline),
// which says nothing about the backend's health.
func (p *proxy) legFailure(ctx context.Context, b *backend, err error) {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return
	}
	b.errors.Add(1)
	p.mets.transportErrors.With(b.url).Inc()
	p.reg.observeFailure(b, time.Now())
}

// verifyIntegrity checks a buffered backend reply end to end: the body
// must be as long as the backend declared, and when the backend stamped
// a checksum (server.ChecksumHeader on /v1/infer replies) the bytes
// received must hash to it. It returns the metric reason and error for
// a reply that must not reach a client.
func verifyIntegrity(resp *http.Response, body []byte) (reason string, err error) {
	if resp.ContentLength >= 0 && resp.ContentLength != int64(len(body)) {
		return "length", fmt.Errorf("frontend: reply carries %d bytes, Content-Length says %d",
			len(body), resp.ContentLength)
	}
	if want := resp.Header.Get(server.ChecksumHeader); want != "" {
		if got := server.BodyChecksum(body); got != want {
			return "checksum", fmt.Errorf("frontend: reply checksum %s does not match stamped %s", got, want)
		}
	}
	return "", nil
}

// writeLeg replays a buffered backend reply to the client.
func writeLeg(w http.ResponseWriter, r *legResult) {
	if ct := r.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// The verified checksum rides through so clients can verify the
	// client↔frontend hop themselves.
	if sum := r.header.Get(server.ChecksumHeader); sum != "" {
		w.Header().Set(server.ChecksumHeader, sum)
	}
	w.Header().Set("X-Mulayer-Backend", r.b.url)
	w.WriteHeader(r.status)
	w.Write(r.body)
}

// codeClass buckets a status code for the requests counter ("2xx"...).
func codeClass(code int) string {
	return fmt.Sprintf("%dxx", code/100)
}

// accrueHedgeTokens credits the hedge budget for one completed request.
func (p *proxy) accrueHedgeTokens() {
	p.hedgeMu.Lock()
	defer p.hedgeMu.Unlock()
	p.hedgeTokens += p.cfg.HedgeBudget
	if max := float64(p.cfg.HedgeBurst); p.hedgeTokens > max {
		p.hedgeTokens = max
	}
}

// spendHedgeToken takes one token if the budget allows a hedge now.
func (p *proxy) spendHedgeToken() bool {
	p.hedgeMu.Lock()
	defer p.hedgeMu.Unlock()
	if p.hedgeTokens < 1 {
		return false
	}
	p.hedgeTokens--
	return true
}

// hedgeTokenLevel reads the current budget (for /statusz).
func (p *proxy) hedgeTokenLevel() float64 {
	p.hedgeMu.Lock()
	defer p.hedgeMu.Unlock()
	return p.hedgeTokens
}

// observeLatency records one end-to-end latency into the hedge-delay
// ring.
func (p *proxy) observeLatency(d time.Duration) {
	p.latMu.Lock()
	defer p.latMu.Unlock()
	p.lats.Add(time.Now(), d)
}

// hedgeDelay is the p95 of recent latencies clamped to
// [HedgeMin, HedgeMax]; with no history yet it is HedgeMax, so a cold
// frontend hedges only against genuine stalls.
func (p *proxy) hedgeDelay() time.Duration {
	p.latMu.Lock()
	p95, n := p.lats.P95(time.Time{})
	p.latMu.Unlock()
	if n == 0 {
		return p.cfg.HedgeMax
	}
	return min(max(p95, p.cfg.HedgeMin), p.cfg.HedgeMax)
}
