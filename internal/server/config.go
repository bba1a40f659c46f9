// Package server is the μLayer inference serving subsystem: an HTTP JSON
// API backed by a pool of simulated SoC devices and a request scheduler
// with admission control (see cmd/mulayer-serve).
//
// The paper frames μLayer as an on-device runtime fed by a stream of
// inference requests (§6, Figure 13); this package puts that runtime
// behind a server the way a fleet of devices would be driven in
// production. Each pool device owns one core.Runtime — a simulated SoC
// runs one inference at a time — and the scheduler extends the paper's
// makespan argument from channels within a layer to requests across
// devices: using the latency predictor's per-plan cost estimate, every
// request goes to the device whose queue has the minimum predicted
// completion time.
package server

import (
	"fmt"
	"io"
	"os"
	"time"

	"mulayer/internal/faults"
	"mulayer/internal/models"
	"mulayer/internal/soc"
)

// SoCSpec names one device class of the pool.
type SoCSpec struct {
	// Name keys the class in the API ("high", "mid", "npu").
	Name string
	// SoC builds the device model.
	SoC func() *soc.SoC
	// Workers is the number of independent devices (each its own
	// core.Runtime) of this class; 0 means 2.
	Workers int
}

// Config configures the serving subsystem.
type Config struct {
	// Addr is the listen address of ListenAndServe (default ":8080").
	Addr string

	// SoCs lists the device classes in the pool; empty means one class
	// per paper SoC ("high" Exynos 7420 and "mid" Exynos 7880).
	SoCs []SoCSpec

	// Models maps API model names to spec models; empty loads the zoo's
	// five evaluated networks plus lenet5.
	Models map[string]*models.Model

	// QueueDepth bounds the total number of admitted-but-unfinished
	// requests across all devices; beyond it /v1/infer answers
	// 503 + Retry-After (default 256).
	QueueDepth int

	// MaxBatch caps the rows fused into one batched execution by the
	// micro-batcher. Admitted requests for the same (model, mechanism,
	// class constraint) accumulate in an open window until it holds
	// MaxBatch rows or BatchWait elapses, then run as one fused batch.
	// 0 or 1 disables batching: every request dispatches immediately by
	// itself (the max_batch=1 baseline of the saturation experiment).
	MaxBatch int
	// BatchWait is the longest a batching window stays open waiting for
	// more rows (default 2ms when MaxBatch > 1). It trades the first
	// request's latency for batch occupancy; see docs/serving.md.
	BatchWait time.Duration

	// DefaultTimeout caps a request that sets no timeout_ms (default 2s);
	// client-requested timeouts are clipped to 30s.
	DefaultTimeout time.Duration

	// TimeScale paces each device by its simulated latency: a device that
	// predicts a 30ms inference occupies its worker for 30ms/TimeScale of
	// wall time, so the pool saturates like real hardware. 0 disables
	// pacing (the cost-only walk runs at full host speed, suitable for
	// tests); 1 is real time; 10 is 10× faster than the modeled SoC.
	TimeScale float64

	// DrainTimeout bounds graceful shutdown: after it expires, queued and
	// in-flight requests are canceled (default 10s).
	DrainTimeout time.Duration

	// Faults maps a SoC class name to its fault-injection config; the ""
	// key applies to every class without its own entry. Empty map (the
	// default) disables injection entirely — the executor's fault hook is
	// then nil and the healthy path pays nothing.
	Faults map[string]faults.Config

	// FailThreshold is the number of consecutive device failures that
	// quarantines a device (default 3).
	FailThreshold int
	// QuarantineBackoff is the first quarantine duration (default 2s);
	// each re-quarantine doubles it up to 30s (or QuarantineBackoff
	// itself, if longer).
	QuarantineBackoff time.Duration
	// MaxRetries bounds how many times one request may be requeued onto
	// another device after a device failure (default 2; negative disables
	// retries).
	MaxRetries int

	// TraceSample enables request tracing: the fraction of requests
	// (0..1] captured into the in-memory trace ring served at
	// /debug/traces. Sampling is deterministic 1-in-round(1/fraction).
	// 0 disables sampled capture.
	TraceSample float64
	// TraceSlow, when > 0, always captures the trace of a request whose
	// wall latency exceeds it — regardless of sampling — and emits a
	// structured slow-request log line to SlowLog. Tracing as a whole is
	// active when TraceSample > 0 or TraceSlow > 0; with both zero the
	// executor's trace hook stays nil and requests pay nothing.
	TraceSlow time.Duration
	// TraceRing bounds the in-memory ring of recent traces (default 64
	// when tracing is active).
	TraceRing int
	// SlowLog receives slow-request log lines, one JSON object per line
	// (default os.Stderr).
	SlowLog io.Writer

	// Overload configures overload protection: deadline-aware admission,
	// the kernel stall watchdog, fleet-wide retry budgets, and the
	// brownout degradation ladder. The zero value disables all of them.
	// See docs/serving.md and ParseOverloadSpec.
	Overload OverloadConfig
}

// maxTimeout clips client-requested timeouts.
const maxTimeout = 30 * time.Second

// backoffCap bounds the doubling quarantine backoff: 30s, or the first
// quarantine duration when that is longer.
func (c Config) backoffCap() time.Duration {
	return max(30*time.Second, c.QuarantineBackoff)
}

// tracingEnabled reports whether requests record traces at all.
func (c Config) tracingEnabled() bool {
	return c.TraceSample > 0 || c.TraceSlow > 0
}

// withDefaults fills zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if len(c.SoCs) == 0 {
		c.SoCs = []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420},
			{Name: "mid", SoC: soc.Exynos7880},
		}
	}
	seen := map[string]bool{}
	for i := range c.SoCs {
		s := &c.SoCs[i]
		if s.Name == "" || s.SoC == nil {
			return c, fmt.Errorf("server: SoC spec %d needs a name and a builder", i)
		}
		if seen[s.Name] {
			return c, fmt.Errorf("server: duplicate SoC class %q", s.Name)
		}
		seen[s.Name] = true
		if s.Workers <= 0 {
			s.Workers = 2
		}
	}
	if c.Models == nil {
		c.Models = map[string]*models.Model{}
		for _, name := range []string{"googlenet", "squeezenet", "vgg16", "alexnet", "mobilenet", "lenet5"} {
			m, err := models.Zoo[name](models.Config{})
			if err != nil {
				return c, fmt.Errorf("server: load %s: %w", name, err)
			}
			c.Models[name] = m
		}
	}
	if len(c.Models) == 0 {
		return c, fmt.Errorf("server: no models configured")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
	}
	if c.MaxBatch > 1 && c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	for class, fc := range c.Faults {
		if class != "" && !seen[class] {
			return c, fmt.Errorf("server: fault config for unknown SoC class %q", class)
		}
		if err := fc.Validate(); err != nil {
			return c, fmt.Errorf("server: fault config for class %q: %w", classLabel(class), err)
		}
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = 2 * time.Second
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return c, fmt.Errorf("server: trace sample %v outside [0, 1]", c.TraceSample)
	}
	if c.TraceSlow < 0 {
		return c, fmt.Errorf("server: negative trace-slow threshold %v", c.TraceSlow)
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 64
	}
	if c.SlowLog == nil {
		c.SlowLog = os.Stderr
	}
	if err := c.Overload.Validate(); err != nil {
		return c, fmt.Errorf("server: %w", err)
	}
	c.Overload = c.Overload.withDefaults()
	return c, nil
}

// classLabel names a fault-config key in errors ("" is the catch-all).
func classLabel(class string) string {
	if class == "" {
		return "all"
	}
	return class
}
