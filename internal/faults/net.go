// The network fault model for the fleet tier: an http.RoundTripper
// wrapper that makes the path between the frontend and a backend fail
// the way real networks fail — added latency, dials that black-hole,
// connections reset mid-flight, responses dropped after the backend did
// the work, and bodies that arrive truncated or bit-flipped. Its
// decisions come from the same stream as the device injector's: one
// uniform variate per request compared against stacked rate thresholds,
// with an optional fault budget so chaos tests can fault a path and
// then watch it recover.
//
// Determinism: each targeted backend gets its own PRNG stream, seeded
// from (NetConfig.Seed, hash of the target), so the decision sequence
// for a given target depends only on the seed and the order of requests
// to that target — not on cross-target interleaving.

package faults

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"
)

// NetConfig is the fault model of one network path (one backend target,
// or the default path when Target is empty). All rates are per-request
// probabilities in [0,1]; their sum must not exceed 1 — the kinds are
// mutually exclusive per request.
type NetConfig struct {
	// Seed seeds the target's PRNG stream (mixed with a per-target salt).
	Seed int64
	// LatencyRate is the probability a request is delayed by Latency.
	LatencyRate float64
	// Latency is the injected delay (default 200ms).
	Latency time.Duration
	// DialTimeoutRate is the probability a request's dial black-holes.
	DialTimeoutRate float64
	// DialHang is how long a black-holed dial blocks before failing, the
	// request context permitting (default 1s).
	DialHang time.Duration
	// ResetRate is the probability a request fails instantly with a
	// connection reset.
	ResetRate float64
	// DropRate is the probability the response is dropped after the
	// backend served it.
	DropRate float64
	// TruncateRate is the probability the response body arrives cut
	// short, Content-Length untouched.
	TruncateRate float64
	// CorruptRate is the probability the response body arrives with one
	// bit flipped.
	CorruptRate float64
	// Target restricts this config to one backend ("host:port"); empty
	// applies to every target without a config of its own.
	Target string
	// MaxFaults bounds the number of non-None decisions this target's
	// injector makes (0 = unbounded) — the fault budget that lets chaos
	// tests fault a path and then watch it clear.
	MaxFaults int
}

// rates lists the config's fault kinds in draw order.
func (c NetConfig) rates() []rate {
	return []rate{{DialTimeout, c.DialTimeoutRate}, {Reset, c.ResetRate}, {Drop, c.DropRate},
		{Truncate, c.TruncateRate}, {Corrupt, c.CorruptRate}, {Latency, c.LatencyRate}}
}

// Validate checks rates and ranges.
func (c NetConfig) Validate() error {
	if err := validateRates("netfaults", c.rates()); err != nil {
		return err
	}
	if c.Latency < 0 || c.Latency > time.Hour {
		return fmt.Errorf("netfaults: latency %v outside [0, 1h]", c.Latency)
	}
	if c.DialHang < 0 || c.DialHang > time.Hour {
		return fmt.Errorf("netfaults: dial hang %v outside [0, 1h]", c.DialHang)
	}
	if c.MaxFaults < 0 {
		return fmt.Errorf("netfaults: negative fault budget %d", c.MaxFaults)
	}
	return nil
}

// decision is one request's fate: the kind plus the variates that
// parameterize body mutation, drawn under the injector lock so the
// stream stays deterministic.
type decision struct {
	kind Kind
	// frac positions the truncation cut or the corrupted byte in [0,1).
	frac float64
	// bit is the bit flipped within the corrupted byte (0..7).
	bit uint
}

// netInjector is one target's deterministic decision stream.
type netInjector struct {
	cfg NetConfig

	mu     sync.Mutex
	stream stream
	stats  Stats
}

func newNetInjector(cfg NetConfig) *netInjector {
	if cfg.Latency == 0 {
		cfg.Latency = 200 * time.Millisecond
	}
	if cfg.DialHang == 0 {
		cfg.DialHang = time.Second
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, cfg.Target)
	return &netInjector{cfg: cfg, stream: newStream(cfg.Seed, h.Sum64(), cfg.MaxFaults, cfg.rates())}
}

// decide draws one request's fate. Parameter variates for body mutation
// are drawn only when their kind is chosen, so rate changes do not
// perturb the main decision stream any more than the device injector's.
func (in *netInjector) decide() decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Events++
	d := decision{kind: in.stream.pick()}
	in.stats.Kinds[d.kind]++
	switch d.kind {
	case Truncate:
		d.frac = in.stream.Float64()
	case Corrupt:
		d.frac = in.stream.Float64()
		d.bit = uint(in.stream.Intn(8))
	}
	return d
}

// Transport injects network faults between an HTTP client and its
// targets. Safe for concurrent use. Targets without a matching config
// (exact "host:port" match, falling back to the empty-target default)
// pass through untouched.
type Transport struct {
	inner http.RoundTripper

	mu   sync.Mutex
	injs map[string]*netInjector // keyed by NetConfig.Target ("" = default)
}

// NewTransport wraps inner with the given fault configs, keyed by
// target ("host:port"; "" is the default path). Configs must already
// Validate. A nil inner uses http.DefaultTransport.
func NewTransport(cfgs map[string]NetConfig, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	t := &Transport{inner: inner, injs: make(map[string]*netInjector)}
	for target, cfg := range cfgs {
		cfg.Target = target
		t.injs[target] = newNetInjector(cfg)
	}
	return t
}

// SetConfig installs (or replaces) the fault config for one target at
// runtime, resetting that target's stream and budget — the live chaos
// knob ("fault this backend now", "clear it").
func (t *Transport) SetConfig(target string, cfg NetConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.Target = target
	t.mu.Lock()
	defer t.mu.Unlock()
	t.injs[target] = newNetInjector(cfg)
	return nil
}

// Clear removes one target's fault config; its traffic flows clean
// (subject to the default "" config, if any).
func (t *Transport) Clear(target string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.injs, target)
}

// Stats snapshots per-target decision counters, keyed by config target.
func (t *Transport) Stats() map[string]Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]Stats, len(t.injs))
	for target, in := range t.injs {
		in.mu.Lock()
		out[target] = in.stats
		in.mu.Unlock()
	}
	return out
}

// NetKinds are the kinds a Transport injects, in Kind order.
var NetKinds = []Kind{Latency, DialTimeout, Reset, Drop, Truncate, Corrupt}

// TotalStats sums decision counters across every target.
func (t *Transport) TotalStats() Stats {
	var total Stats
	for _, s := range t.Stats() {
		total.Events += s.Events
		for k, n := range s.Kinds {
			total.Kinds[k] += n
		}
	}
	return total
}

// injectorFor picks the injector governing one request host: exact
// target match first, then the default path.
func (t *Transport) injectorFor(host string) *netInjector {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in, ok := t.injs[host]; ok {
		return in
	}
	return t.injs[""]
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.injectorFor(req.URL.Host)
	if in == nil {
		return t.inner.RoundTrip(req)
	}
	d := in.decide()
	switch d.kind {
	case Latency:
		if err := sleepCtx(req.Context(), in.cfg.Latency); err != nil {
			return nil, err
		}
	case DialTimeout:
		if err := sleepCtx(req.Context(), in.cfg.DialHang); err != nil {
			return nil, err
		}
		return nil, &net.OpError{Op: "dial", Net: "tcp",
			Err: fmt.Errorf("netfaults: injected dial timeout to %s", req.URL.Host)}
	case Reset:
		return nil, &net.OpError{Op: "read", Net: "tcp",
			Err: errors.New("netfaults: injected connection reset")}
	case Drop:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// The backend served it; the network ate the reply.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp",
			Err: errors.New("netfaults: injected response drop")}
	case Truncate, Corrupt:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		return mutateBody(resp, d)
	}
	// None, or a Latency delay waited out: forward the request.
	return t.inner.RoundTrip(req)
}

// mutateBody rereads the response body and applies the decision's
// mutation, leaving every header — Content-Length included — exactly as
// the backend sent it: the corruption happens below HTTP, the way a bad
// NIC or proxy would do it.
func mutateBody(resp *http.Response, d decision) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch d.kind {
	case Truncate:
		if len(body) > 0 {
			keep := int(math.Floor(d.frac * float64(len(body))))
			if keep >= len(body) {
				keep = len(body) - 1
			}
			body = body[:keep]
		}
	case Corrupt:
		if len(body) > 0 {
			i := int(math.Floor(d.frac * float64(len(body))))
			if i >= len(body) {
				i = len(body) - 1
			}
			body[i] ^= 1 << (d.bit & 7)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// sleepCtx waits d out unless the context dies first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
