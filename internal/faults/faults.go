// Package faults is a deterministic, seedable fault model at the two
// levels the fleet serves at. For the simulated device fleet it can make
// a processor fail a kernel, stall a kernel for a multiple of its
// predicted time, die permanently, or panic mid-kernel (exercising the
// serving layer's recovery path). The serving scheduler consults one
// Injector per pool device through the executor's kernel hook; a nil
// hook costs nothing on the healthy path. For the network between the
// frontend and its backends, Transport (net.go) injects latency, dead
// dials, resets, dropped replies and truncated or bit-flipped bodies.
//
// Determinism: an Injector draws one uniform variate per kernel from its
// own stream, seeded from (Config.Seed, device salt). Each pool
// device is served by a single worker goroutine, so the kernel sequence —
// and therefore every fault decision — is reproducible for a given seed
// regardless of cross-device interleaving. The single draw per kernel
// also keeps decisions stable when individual rates change: a kernel's
// variate is compared against stacked rate thresholds.
package faults

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mulayer/internal/device"
)

// Kind classifies one injected fault decision, on a device or on the
// network.
type Kind int

// The fault kinds an Injector (Stall … Panic) or a Transport
// (Latency … Corrupt) can produce.
const (
	// None leaves the kernel or request untouched.
	None Kind = iota
	// Stall inflates the kernel's duration by Config.StallFactor.
	Stall
	// Fail fails the kernel; the run aborts with a *Fault.
	Fail
	// Die kills the kernel's processor permanently: this kernel and every
	// later kernel on the same processor fail with a Die fault.
	Die
	// Panic panics mid-kernel — the chaos probe for the serving layer's
	// worker recovery path.
	Panic
	// Latency delays the request by NetConfig.Latency before forwarding.
	Latency
	// DialTimeout black-holes the dial: the request hangs for
	// NetConfig.DialHang (or until its context expires) and then fails.
	DialTimeout
	// Reset fails the request immediately with a connection-reset error.
	Reset
	// Drop forwards the request but discards the response — the backend
	// did the work, the caller never hears about it.
	Drop
	// Truncate delivers the response with its body cut short, headers
	// (including Content-Length) untouched.
	Truncate
	// Corrupt delivers the response with one bit flipped in its body.
	Corrupt
)

// kindNames names each Kind: the mulayer_faults_injected_total{kind}
// label values.
var kindNames = [...]string{
	None:        "none",
	Stall:       "stall",
	Fail:        "fail",
	Die:         "die",
	Panic:       "panic",
	Latency:     "latency",
	DialTimeout: "dial_timeout",
	Reset:       "reset",
	Drop:        "drop",
	Truncate:    "truncate",
	Corrupt:     "corrupt",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Stats is a snapshot of an injector's decision counters.
type Stats struct {
	// Events counts the kernels (Injector) or requests (one Transport
	// target) the injector saw.
	Events int64
	// Kinds counts the decisions drawn of each kind, None included.
	Kinds [len(kindNames)]int64
}

// Injected returns the total number of injected (non-None) decisions.
func (s Stats) Injected() int64 {
	var n int64
	for _, c := range s.Kinds[None+1:] {
		n += c
	}
	return n
}

// Fault is the typed error carried out of a failed kernel. The serving
// scheduler inspects Kind and Proc to decide between retry-with-quarantine
// (transient failures) and degraded replanning (a dead processor).
type Fault struct {
	// Device is the pool device name the fault was injected on (filled by
	// the scheduler's hook; empty at the injector level).
	Device string
	// Proc is the processor model name the kernel ran on.
	Proc string
	// ProcType is the processor class (CPU/GPU/NPU).
	ProcType device.Type
	// Kernel is the kernel label.
	Kernel string
	// Kind is Fail or Die.
	Kind Kind
}

// Error implements error.
func (f *Fault) Error() string {
	where := f.Proc
	if f.Device != "" {
		where = f.Device + "/" + where
	}
	if f.Kind == Die {
		return fmt.Sprintf("faults: processor %s died (kernel %s)", where, f.Kernel)
	}
	return fmt.Sprintf("faults: kernel %s failed on %s", f.Kernel, where)
}

// Config is the fault model of one device. All rates are per-kernel
// probabilities in [0,1]; their sum must not exceed 1 (the kinds are
// mutually exclusive per kernel).
type Config struct {
	// Seed seeds the injector's PRNG stream (mixed with a per-device salt).
	Seed int64
	// FailRate is the probability a kernel fails transiently.
	FailRate float64
	// StallRate is the probability a kernel stalls for StallFactor× its
	// predicted time.
	StallRate float64
	// StallFactor multiplies a stalled kernel's duration (default 10, at
	// most 1000).
	StallFactor float64
	// DieRate is the probability the kernel's processor dies permanently.
	DieRate float64
	// PanicRate is the probability a kernel panics (chaos-tests the
	// serving layer's worker recovery).
	PanicRate float64
	// Proc restricts injection to one processor class ("cpu", "gpu",
	// "npu"); empty injects on every processor.
	Proc string
	// MaxFaults bounds the number of non-None decisions the injector makes
	// (0 = unbounded). Dead-processor rejections do not count: once a
	// processor dies it stays dead. The bound is the error budget that
	// lets chaos tests fault a device and then watch it recover.
	MaxFaults int
}

// rates lists the config's fault kinds in draw order.
func (c Config) rates() []rate {
	return []rate{{Die, c.DieRate}, {Fail, c.FailRate}, {Panic, c.PanicRate}, {Stall, c.StallRate}}
}

// Enabled reports whether the config can inject anything.
func (c Config) Enabled() bool {
	for _, r := range c.rates() {
		if r.p > 0 {
			return true
		}
	}
	return false
}

// maxStallFactor bounds Config.StallFactor so that a stalled kernel of up
// to 100 days still has a duration time.Duration can hold.
const maxStallFactor = 1000

// Validate checks rates and ranges.
func (c Config) Validate() error {
	if err := validateRates("faults", c.rates()); err != nil {
		return err
	}
	if !(c.StallFactor == 0 || (c.StallFactor >= 1 && c.StallFactor <= maxStallFactor)) {
		return fmt.Errorf("faults: stall factor %v not in [1, %d]", c.StallFactor, maxStallFactor)
	}
	if c.MaxFaults < 0 {
		return fmt.Errorf("faults: negative fault budget %d", c.MaxFaults)
	}
	switch c.Proc {
	case "", "cpu", "gpu", "npu":
	default:
		return fmt.Errorf("faults: unknown processor filter %q (want cpu, gpu, npu)", c.Proc)
	}
	return nil
}

// procMatches reports whether the filter admits a processor class.
func (c Config) procMatches(t device.Type) bool {
	return c.Proc == "" || strings.EqualFold(c.Proc, t.String())
}

// Injector injects faults into one device's kernel stream. Safe for
// concurrent use; decisions are deterministic for a fixed seed and kernel
// order.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	stream stream
	dead   map[string]bool // processors this injector has killed
	stats  Stats

	// Observe, when set before the injector is used, is called once per
	// injected (non-None) decision — the serving metrics hook.
	Observe func(kind Kind, proc string)
}

// New returns an injector for cfg; salt distinguishes devices sharing one
// fleet-level seed (use the pool device id).
func New(cfg Config, salt int64) *Injector {
	if cfg.StallFactor == 0 {
		cfg.StallFactor = 10
	}
	return &Injector{
		cfg:    cfg,
		stream: newStream(cfg.Seed, uint64(salt), cfg.MaxFaults, cfg.rates()),
		dead:   make(map[string]bool),
	}
}

// Stats returns a snapshot of the decision counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Kernel is the executor hook: it decides the fate of one kernel on one
// processor. It returns the (possibly inflated) duration, or an error for
// Fail/Die decisions; a Panic decision panics. A kernel on an
// already-dead processor always fails with a Die fault.
func (in *Injector) Kernel(p *device.Processor, kernel string, d time.Duration) (time.Duration, error) {
	in.mu.Lock()
	in.stats.Events++
	if in.dead[p.Name] {
		in.mu.Unlock()
		return d, &Fault{Proc: p.Name, ProcType: p.Type, Kernel: kernel, Kind: Die}
	}
	if !in.cfg.procMatches(p.Type) {
		in.mu.Unlock()
		return d, nil
	}
	kind := in.stream.pick()
	in.stats.Kinds[kind]++
	if kind == Die {
		in.dead[p.Name] = true
	}
	observe := in.Observe
	in.mu.Unlock()
	if kind == None {
		return d, nil
	}
	if observe != nil {
		observe(kind, p.Name)
	}
	switch kind {
	case Stall:
		return time.Duration(float64(d) * in.cfg.StallFactor), nil
	case Panic:
		panic(fmt.Sprintf("faults: injected panic in kernel %s on %s", kernel, p.Name))
	}
	return d, &Fault{Proc: p.Name, ProcType: p.Type, Kernel: kernel, Kind: kind}
}
