// Package frontend is the μLayer fleet tier: an HTTP proxy that routes
// /v1/infer over many mulayer-serve backends (see cmd/mulayer-frontend).
//
// The node-level scheduler (internal/server) extends the paper's
// makespan argument from channels within a layer to requests across
// devices; this package extends it once more, to requests across
// backends. The same predicted-completion signal that picks a split
// ratio inside a node — carried by each backend's /readyz reply —
// picks the least-loaded replica across nodes, through the placement
// policies shared with the node tier (internal/dispatch):
//
//   - A backend registry holds the fleet, with live add/drain/remove via
//     an admin endpoint and a reloadable backends file. Per-backend
//     health is driven by periodic /readyz probes plus passive
//     error/latency observations. Quarantine and half-open probing run
//     on internal/breaker, the circuit the node's devices use too, and
//     the latency outlier ejector trips the same circuit.
//   - Per-model rendezvous hashing concentrates a model's requests on a
//     stable few replicas (plan-cache and batch-fusion affinity),
//     softened by least-predicted-load spill when the affinity choice is
//     overloaded relative to the fleet.
//   - Hedged requests: after a p95-derived delay, a second attempt is
//     launched on the next-ranked replica; the first decisive response
//     wins and the loser is cancelled. A hedge budget bounds hedging to
//     a fraction of traffic so it cannot double fleet load.
//   - Transport failures (a killed backend) fail over to the next-ranked
//     replica; backend HTTP rejections (503 shedding) pass through
//     untouched — admission is backend policy, and retrying rejections
//     amplifies the overload they protect against.
package frontend

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"mulayer/internal/breaker"
	"mulayer/internal/dispatch"
)

// NewHTTPTransport builds the tuned transport the frontend proxies and
// probes through: a bounded dial so a black-holed backend cannot hang a
// failover or hedge leg, a response-header timeout so an accepted-but-
// silent connection dies too, and a per-backend idle pool sized to the
// hedging fan-out so bursts of legs reuse warm connections.
func NewHTTPTransport(dialTimeout, responseHeaderTimeout time.Duration, maxIdlePerHost int) *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   dialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          4 * maxIdlePerHost,
		MaxIdleConnsPerHost:   maxIdlePerHost,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: responseHeaderTimeout,
		ExpectContinueTimeout: time.Second,
	}
}

// DefaultTransport is the transport a Config with a nil Transport gets:
// NewHTTPTransport(2s, 15s, 32).
func DefaultTransport() *http.Transport {
	return NewHTTPTransport(2*time.Second, 15*time.Second, 32)
}

// Config configures the fleet frontend.
type Config struct {
	// Addr is the listen address of ListenAndServe (default ":8090").
	Addr string

	// Backends are the initial backend base URLs ("http://host:port";
	// a bare "host:port" gets the http scheme). The set changes at
	// runtime via /admin/backends and Reload.
	Backends []string
	// BackendsFile optionally names a file holding one backend URL per
	// line ('#' comments); POST /admin/reload (or SIGHUP in the binary)
	// re-reads it, adding new backends and draining delisted ones. When
	// set, the file is also read at startup, merging with Backends.
	BackendsFile string

	// ProbeEvery is the health/load probe cadence per backend (default
	// 500ms): one GET /readyz per round, whose status code drives the
	// circuit breaker and whose body refreshes the load signal.
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe round trip (default 2s).
	ProbeTimeout time.Duration

	// FailThreshold is the number of consecutive failures — passive
	// transport errors and failed probes share the counter — that
	// quarantines a backend (default 3).
	FailThreshold int
	// QuarantineBackoff is the first quarantine duration (default 1s);
	// each re-quarantine doubles it up to 30s (or QuarantineBackoff
	// itself, if longer).
	QuarantineBackoff time.Duration

	// MaxInflight bounds proxied requests in flight across the fleet;
	// beyond it /v1/infer answers 503 (default 512).
	MaxInflight int
	// MaxAttempts bounds transport-failure failovers per request: the
	// primary attempt plus MaxAttempts-1 re-dispatches onto the
	// next-ranked backends (default 3).
	MaxAttempts int
	// RequestTimeout caps one proxied request end to end, hedges and
	// failovers included (default 30s; the client's own deadline still
	// applies through context cancellation).
	RequestTimeout time.Duration

	// HedgeBudget is the fraction of completed requests that may hedge
	// (default 0.1); 0 disables hedging entirely. Budget accrues per
	// completed request and each hedge spends one unit, so hedging is
	// bounded to HedgeBudget of traffic no matter how slow the fleet is.
	HedgeBudget float64
	// HedgeBurst caps accrued hedge budget (default 8).
	HedgeBurst int
	// HedgeMin / HedgeMax clamp the hedge delay, which tracks the p95 of
	// recently observed request latencies (defaults 10ms and 2s). Before
	// any latency has been observed the delay is HedgeMax.
	HedgeMin time.Duration
	HedgeMax time.Duration

	// DrainTimeout bounds graceful shutdown: how long Shutdown waits for
	// proxied requests in flight (default 10s).
	DrainTimeout time.Duration

	// Transport overrides the proxy/probe HTTP transport entirely; nil
	// builds DefaultTransport(): a 2s dial so a black-holed backend fails
	// a leg fast, a 15s wait for response headers so a connection that
	// opens but never answers fails too, and 32 warm idle connections per
	// backend so hedge and failover bursts skip a fresh dial. The
	// -net-faults flag wraps that transport in a faults.Transport
	// here.
	Transport http.RoundTripper

	// EjectFactor is the outlier-ejection threshold: a backend whose
	// observed success-latency p95 exceeds EjectFactor × the fleet
	// median p95 for EjectHold is ejected from rotation (Envoy-style)
	// even though it still answers /readyz — the gray-slow replica the
	// circuit breaker cannot see. 0 means the default 3.0; negative
	// disables ejection.
	EjectFactor float64
	// EjectHold is how long the outlier condition must persist before
	// ejection (default 2s) — brief latency spikes do not eject.
	EjectHold time.Duration
	// EjectMinSamples is the minimum served-latency samples a backend
	// needs in its window before it can be ejected or counted in the
	// fleet median (default 8).
	EjectMinSamples int
	// EjectBackoff is the first ejection duration (default 5s); each
	// re-ejection of the same backend doubles it up to the quarantine
	// backoff's cap. Readmission is by time, Envoy-style: after the
	// backoff the backend rejoins and must re-earn ejection with fresh
	// samples.
	EjectBackoff time.Duration

	// Policy is the shared placement policy (internal/dispatch) that
	// ranks backends per request (default dispatch.RendezvousLeastLoad
	// with SpillFactor below and the default spill margin).
	Policy dispatch.Policy
	// SpillFactor tunes the default policy's load-spill ratio (see
	// dispatch.RendezvousLeastLoad); ignored when Policy is set
	// explicitly.
	SpillFactor float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		c.Addr = ":8090"
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.HedgeBudget < 0 || c.HedgeBudget > 1 {
		return c, fmt.Errorf("frontend: hedge budget %v outside [0, 1]", c.HedgeBudget)
	}
	if c.HedgeBurst <= 0 {
		c.HedgeBurst = 8
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Transport == nil {
		c.Transport = DefaultTransport()
	}
	if c.EjectFactor == 0 {
		c.EjectFactor = 3.0
	}
	if c.EjectHold <= 0 {
		c.EjectHold = 2 * time.Second
	}
	if c.EjectMinSamples <= 0 {
		c.EjectMinSamples = 8
	}
	if c.EjectBackoff <= 0 {
		c.EjectBackoff = 5 * time.Second
	}
	if c.Policy == nil {
		c.Policy = dispatch.RendezvousLeastLoad{SpillFactor: c.SpillFactor}
	}
	return c, nil
}

// backoffCap bounds the doubling quarantine and ejection backoffs: 30s,
// or the first quarantine duration when that is longer.
func (c Config) backoffCap() time.Duration {
	return max(30*time.Second, c.QuarantineBackoff)
}

// breakerPolicy is every backend's circuit-breaker policy. Open periods
// are jittered so backends quarantined together do not half-open
// together.
func (c Config) breakerPolicy() breaker.Policy {
	return breaker.Policy{
		Threshold: c.FailThreshold,
		Backoff:   breaker.Backoff{Base: c.QuarantineBackoff, Max: c.backoffCap()},
		Jitter:    true,
	}
}
