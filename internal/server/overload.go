package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Overload-protection errors, all mapped to 503 by the handler: the
// service is shedding load, not the request malformed.
var (
	// ErrDeadlineInfeasible means the predictor judged the request unable
	// to meet its deadline — at admission (predicted queue wait + makespan
	// exceeds it) or at dispatch (queue aging: the wait already consumed
	// it). The client gets an immediate typed 503 instead of a deadline
	// expiry after queueing.
	ErrDeadlineInfeasible = errors.New("server: deadline infeasible")
	// ErrRetryBudgetExhausted means a device failed and the fleet-wide
	// retry budget for the request's model class is spent — correlated
	// faults degrade to fast 503s rather than retry storms.
	ErrRetryBudgetExhausted = errors.New("server: device failed and the retry budget is exhausted")
	// ErrPriorityShed means the brownout ladder reached the level that
	// rejects the request's priority class.
	ErrPriorityShed = errors.New("server: low-priority request shed under overload")
)

// Priority is a request's shedding class. Lower values are more
// important; the brownout ladder sheds from the bottom up.
type Priority int

// The priority classes of the API's "priority" field.
const (
	// PriorityHigh is the top class: the last to be shed, and the class
	// whose availability the overload smoke run floors.
	PriorityHigh Priority = iota
	// PriorityNormal is the default for requests that name no priority.
	PriorityNormal
	// PriorityLow is background work: the first class the brownout ladder
	// rejects.
	PriorityLow
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityNormal:
		return "normal"
	case PriorityLow:
		return "low"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// ParsePriority resolves an API priority name ("" means normal). Exported
// for the load generator's flag validation.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want high, normal, low)", s)
}

// The brownout ladder's levels: each adds one degradation on top of the
// previous. Level 0 is normal service.
const (
	// overloadLevelShrinkWindow halves the batching window per level from
	// here up: occupancy is traded back for queue-wait latency.
	overloadLevelShrinkWindow = 1
	// overloadLevelNoTrace stops recording request traces (sampling to 0).
	overloadLevelNoTrace = 2
	// overloadLevelShedLow rejects PriorityLow requests at admission.
	overloadLevelShedLow = 3
	// maxOverloadLevel is the top of the ladder.
	maxOverloadLevel = 3
)

// overloadSampleCap bounds the controller's queue-wait sample ring; at the
// default 250ms evaluation period this holds far more than one window.
const overloadSampleCap = 512

// OverloadConfig is the overload-protection configuration: deadline-aware
// admission, the kernel stall watchdog, fleet-wide retry budgets, and the
// brownout ladder. The zero value disables all four (the PR 3 behavior).
// Parse one from a flag string with ParseOverloadSpec.
type OverloadConfig struct {
	// DeadlineAdmission enables deadline-aware admission and CoDel-style
	// queue aging: a request whose predicted queue wait + makespan exceeds
	// its deadline is rejected with an immediate typed 503 at enqueue, and
	// a queued request whose deadline can no longer cover its batch's
	// predicted run is shed at dispatch instead of wasting device time.
	// Inert when pacing is off (TimeScale 0): wall predictions are then 0.
	DeadlineAdmission bool
	// WatchdogFactor arms the executor's kernel stall watchdog: each
	// kernel gets a budget of WatchdogFactor × its predicted duration, and
	// exceeding it is a device failure (failover + quarantine). 0 disables;
	// values in (0, 1) are invalid (they would trip on every kernel).
	WatchdogFactor float64
	// QueueWaitP95 drives the brownout ladder: when the recent queue-wait
	// p95 exceeds it, the overload controller steps the ladder up one
	// level per evaluation; when the p95 stays under half of it for Hold,
	// the controller steps back down. 0 disables the ladder.
	QueueWaitP95 time.Duration
	// EvalEvery is the controller's evaluation period (default 250ms).
	EvalEvery time.Duration
	// Hold is the step-down hysteresis: how long the p95 must stay below
	// QueueWaitP95/2 before the ladder steps down one level (default 2s).
	Hold time.Duration
	// RetryRate is the fleet-wide failover retry budget per model class,
	// in tokens per second (token bucket; each requeue spends one token).
	// 0 leaves retries bounded only by MaxRetries per request.
	RetryRate float64
	// RetryBurst is the bucket capacity (default max(1, RetryRate) when
	// RetryRate > 0).
	RetryBurst int
}

// Enabled reports whether any overload-protection feature is on.
func (c OverloadConfig) Enabled() bool {
	return c.DeadlineAdmission || c.WatchdogFactor > 0 || c.QueueWaitP95 > 0 || c.RetryRate > 0
}

// Validate checks ranges; it never panics on any value (FuzzOverloadConfig
// holds the spec parser + Validate to that).
func (c OverloadConfig) Validate() error {
	if math.IsNaN(c.WatchdogFactor) || math.IsInf(c.WatchdogFactor, 0) {
		return fmt.Errorf("overload: watchdog factor %v is not finite", c.WatchdogFactor)
	}
	if c.WatchdogFactor != 0 && c.WatchdogFactor < 1 {
		return fmt.Errorf("overload: watchdog factor %v not in {0} ∪ [1, ∞)", c.WatchdogFactor)
	}
	if c.QueueWaitP95 < 0 {
		return fmt.Errorf("overload: negative queue-wait threshold %v", c.QueueWaitP95)
	}
	if c.EvalEvery < 0 {
		return fmt.Errorf("overload: negative evaluation period %v", c.EvalEvery)
	}
	if c.Hold < 0 {
		return fmt.Errorf("overload: negative hysteresis hold %v", c.Hold)
	}
	if math.IsNaN(c.RetryRate) || math.IsInf(c.RetryRate, 0) || c.RetryRate < 0 {
		return fmt.Errorf("overload: retry rate %v not a finite non-negative number", c.RetryRate)
	}
	if c.RetryBurst < 0 {
		return fmt.Errorf("overload: negative retry burst %d", c.RetryBurst)
	}
	return nil
}

// withDefaults fills the zero fields the enabled features need.
func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.QueueWaitP95 > 0 {
		if c.EvalEvery <= 0 {
			c.EvalEvery = 250 * time.Millisecond
		}
		if c.Hold <= 0 {
			c.Hold = 2 * time.Second
		}
	}
	if c.RetryRate > 0 && c.RetryBurst == 0 {
		// Clamp before converting: a huge finite rate must not overflow the
		// int conversion into a negative burst.
		b := math.Max(1, math.Ceil(c.RetryRate))
		if b > math.MaxInt32 {
			b = math.MaxInt32
		}
		c.RetryBurst = int(b)
	}
	return c
}

// waitSample is one queue-wait observation feeding the controller.
type waitSample struct {
	when time.Time
	wait time.Duration
}

// overloadController steps the brownout ladder from the recent queue-wait
// p95: above the threshold it steps up one level per evaluation; below
// half the threshold for a full hold period it steps down one level
// (hysteresis, so the ladder does not flap around the boundary). The
// current level is read lock-free on the request path.
type overloadController struct {
	threshold time.Duration
	evalEvery time.Duration
	hold      time.Duration

	lvl atomic.Int32

	mu         sync.Mutex
	samples    [overloadSampleCap]waitSample
	head, n    int
	belowSince time.Time
	lastP95    time.Duration
	stepsUp    int64
	stepsDown  int64
}

func newOverloadController(cfg OverloadConfig) *overloadController {
	return &overloadController{
		threshold: cfg.QueueWaitP95,
		evalEvery: cfg.EvalEvery,
		hold:      cfg.Hold,
	}
}

// level returns the current brownout level (0 when the controller is nil —
// the ladder disabled).
func (c *overloadController) level() int {
	if c == nil {
		return 0
	}
	return int(c.lvl.Load())
}

// observe records one queue-wait sample (called at dispatch for every
// batch member). Nil-safe: a disabled ladder costs one branch.
func (c *overloadController) observe(now time.Time, wait time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.samples[c.head] = waitSample{when: now, wait: wait}
	c.head = (c.head + 1) % overloadSampleCap
	if c.n < overloadSampleCap {
		c.n++
	}
	c.mu.Unlock()
}

// window is the sample horizon the p95 is computed over.
func (c *overloadController) window() time.Duration {
	w := 4 * c.evalEvery
	if w < 500*time.Millisecond {
		w = 500 * time.Millisecond
	}
	if w > 10*time.Second {
		w = 10 * time.Second
	}
	return w
}

// p95Locked computes the p95 queue wait over the window ending at now.
// Caller holds c.mu.
func (c *overloadController) p95Locked(now time.Time) (time.Duration, int) {
	cutoff := now.Add(-c.window())
	waits := make([]time.Duration, 0, c.n)
	for i := 0; i < c.n; i++ {
		if s := c.samples[i]; s.when.After(cutoff) {
			waits = append(waits, s.wait)
		}
	}
	if len(waits) == 0 {
		return 0, 0
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	idx := int(math.Ceil(0.95*float64(len(waits)))) - 1
	if idx < 0 {
		idx = 0
	}
	return waits[idx], len(waits)
}

// evaluate runs one controller step and returns the transition taken
// ("up", "down", or ""). queueEmpty lets an idle server step down even
// when no dispatches produce fresh samples; a wedged-but-nonempty queue
// with no samples yields no verdict (the ladder holds its level rather
// than stepping down blind).
func (c *overloadController) evaluate(now time.Time, queueEmpty bool) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	p95, n := c.p95Locked(now)
	if n == 0 && !queueEmpty {
		return ""
	}
	c.lastP95 = p95
	lvl := c.lvl.Load()
	switch {
	case p95 > c.threshold:
		c.belowSince = time.Time{}
		if lvl < maxOverloadLevel {
			c.lvl.Store(lvl + 1)
			c.stepsUp++
			return "up"
		}
	case p95 <= c.threshold/2:
		if c.belowSince.IsZero() {
			c.belowSince = now
		}
		if now.Sub(c.belowSince) >= c.hold && lvl > 0 {
			c.lvl.Store(lvl - 1)
			c.stepsDown++
			c.belowSince = now // a fresh hold gates the next step down
			return "down"
		}
	default:
		// Between the hysteresis bands: hold the level, restart the clock.
		c.belowSince = time.Time{}
	}
	return ""
}

// snapshot returns the controller's state for /statusz.
func (c *overloadController) snapshot() (level int, p95 time.Duration, up, down int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.lvl.Load()), c.lastP95, c.stepsUp, c.stepsDown
}

// retryBudget is a token bucket per model class capping failover retries
// fleet-wide: every requeue after a device failure spends one token, and
// an empty bucket turns the retry into a fast typed 503. Correlated
// faults (a whole class of devices stalling at once) then degrade service
// instead of multiplying offered load.
type retryBudget struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucketState
}

type bucketState struct {
	tokens float64
	last   time.Time
}

func newRetryBudget(cfg OverloadConfig) *retryBudget {
	if cfg.RetryRate <= 0 {
		return nil
	}
	return &retryBudget{
		rate:    cfg.RetryRate,
		burst:   float64(cfg.RetryBurst),
		buckets: make(map[string]*bucketState),
	}
}

// allow spends one token from the model's bucket, refilling by elapsed
// time first; it reports false when the bucket is empty. Nil-safe: a nil
// budget allows everything.
func (rb *retryBudget) allow(model string, now time.Time) bool {
	if rb == nil {
		return true
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	b := rb.buckets[model]
	if b == nil {
		b = &bucketState{tokens: rb.burst, last: now}
		rb.buckets[model] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(rb.burst, b.tokens+float64(dt*rb.rate))
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tokens reports the per-model token levels for /statusz.
func (rb *retryBudget) tokens(now time.Time) map[string]float64 {
	if rb == nil {
		return nil
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	out := make(map[string]float64, len(rb.buckets))
	for model, b := range rb.buckets {
		out[model] = math.Min(rb.burst, b.tokens+float64(now.Sub(b.last).Seconds()*rb.rate))
	}
	return out
}

// jitterRetryAfter spreads a Retry-After hint across ±25% so clients
// rejected together do not return together (the thundering herd against a
// recovering server). u is a uniform variate in [0, 1).
func jitterRetryAfter(n int, u float64) int {
	j := int(math.Round(float64(n) * (0.75 + float64(0.5*u))))
	if j < 1 {
		j = 1
	}
	return j
}
