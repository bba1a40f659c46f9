// Package faults is a deterministic, seedable fault model for the
// simulated device fleet: it can make a processor fail a kernel, stall a
// kernel for a multiple of its predicted time, die permanently, or panic
// mid-kernel (exercising the serving layer's recovery path). The serving
// scheduler consults one Injector per pool device through the executor's
// kernel hook; a nil hook costs nothing on the healthy path.
//
// Determinism: an Injector draws one uniform variate per kernel from its
// own Stream, seeded from (Config.Seed, device salt). Each pool
// device is served by a single worker goroutine, so the kernel sequence —
// and therefore every fault decision — is reproducible for a given seed
// regardless of cross-device interleaving. The single draw per kernel
// also keeps decisions stable when individual rates change: a kernel's
// variate is compared against stacked rate thresholds.
package faults

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mulayer/internal/device"
)

// Kind classifies one injected fault decision.
type Kind int

// The fault kinds an Injector can produce.
const (
	// None leaves the kernel untouched.
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
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Stall:
		return "stall"
	case Fail:
		return "fail"
	case Die:
		return "die"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
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
	// StallFactor multiplies a stalled kernel's duration (default 10).
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

// Enabled reports whether the config can inject anything.
func (c Config) Enabled() bool {
	return c.FailRate > 0 || c.StallRate > 0 || c.DieRate > 0 || c.PanicRate > 0
}

// Validate checks rates and ranges.
func (c Config) Validate() error {
	if err := ValidateRates("faults", Rate{"fail", c.FailRate}, Rate{"stall", c.StallRate},
		Rate{"die", c.DieRate}, Rate{"panic", c.PanicRate}); err != nil {
		return err
	}
	if !(c.StallFactor == 0 || (c.StallFactor >= 1 && !math.IsInf(c.StallFactor, 1))) {
		return fmt.Errorf("faults: stall factor %v not in [1, ∞)", c.StallFactor)
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
	switch c.Proc {
	case "cpu":
		return t == device.CPU
	case "gpu":
		return t == device.GPU
	case "npu":
		return t == device.NPU
	}
	return true
}

// Stats is a snapshot of an injector's decision counters.
type Stats struct {
	Kernels int64 `json:"kernels"`
	Stalls  int64 `json:"stalls"`
	Fails   int64 `json:"fails"`
	Dies    int64 `json:"dies"`
	Panics  int64 `json:"panics"`
}

// Injected returns the total number of injected (non-None) decisions.
func (s Stats) Injected() int64 { return s.Stalls + s.Fails + s.Dies + s.Panics }

// Injector injects faults into one device's kernel stream. Safe for
// concurrent use; decisions are deterministic for a fixed seed and kernel
// order.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	stream Stream
	dead   map[string]device.Type // processor name → class, for dead procs
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
		stream: NewStream(cfg.Seed, uint64(salt), cfg.MaxFaults),
		dead:   make(map[string]device.Type),
	}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns a snapshot of the decision counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// DeadProcs returns the names of processors the injector has killed.
func (in *Injector) DeadProcs() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.dead))
	for name := range in.dead {
		out = append(out, name)
	}
	return out
}

// Kernel is the executor hook: it decides the fate of one kernel on one
// processor. It returns the (possibly inflated) duration, or an error for
// Fail/Die decisions; a Panic decision panics. A kernel on an
// already-dead processor always fails with a Die fault.
func (in *Injector) Kernel(p *device.Processor, kernel string, d time.Duration) (time.Duration, error) {
	in.mu.Lock()
	in.stats.Kernels++
	if _, gone := in.dead[p.Name]; gone {
		in.mu.Unlock()
		return d, &Fault{Proc: p.Name, ProcType: p.Type, Kernel: kernel, Kind: Die}
	}
	if !in.cfg.procMatches(p.Type) {
		in.mu.Unlock()
		return d, nil
	}
	i := in.stream.Pick(in.cfg.DieRate, in.cfg.FailRate, in.cfg.PanicRate, in.cfg.StallRate)
	if i < 0 {
		in.mu.Unlock()
		return d, nil
	}
	kind := [...]Kind{Die, Fail, Panic, Stall}[i]
	switch kind {
	case Stall:
		in.stats.Stalls++
	case Fail:
		in.stats.Fails++
	case Die:
		in.stats.Dies++
		in.dead[p.Name] = p.Type
	case Panic:
		in.stats.Panics++
	}
	observe := in.Observe
	in.mu.Unlock()
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
