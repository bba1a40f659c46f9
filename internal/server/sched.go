package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/device"
	"mulayer/internal/dispatch"
	"mulayer/internal/exec"
	"mulayer/internal/faults"
	"mulayer/internal/models"
	"mulayer/internal/server/metrics"
	"mulayer/internal/trace"
)

// Admission errors, mapped to HTTP statuses by the handler. Queue-full
// and draining are the shared policy's errors (internal/dispatch), so the
// node and fleet tiers reject identically.
var (
	// ErrQueueFull means the bounded queue is at capacity (503).
	ErrQueueFull = dispatch.ErrQueueFull
	// ErrDraining means the scheduler no longer admits requests (503).
	ErrDraining = dispatch.ErrDraining
	// ErrNoDevice means no pool device matches the requested SoC class
	// (400).
	ErrNoDevice = errors.New("server: no matching device")
)

// pending is one admitted request: a member of a batching window, then of
// a dispatched batch, possibly requeued across devices by failover.
type pending struct {
	ctx       context.Context
	model     *models.Model
	modelName string
	mech      core.Mechanism
	soc       string   // requested class ("" = any device)
	rows      int      // rows this request contributes to its batch (≥1)
	priority  Priority // shedding class (brownout ladder level 3 rejects low)
	enqueued  time.Time
	done      chan outcome // buffered(1): the worker never blocks on it
	// tr is the request's trace (nil when tracing is off). The handler
	// owns creation and finish; the serving worker records stage and
	// kernel spans on it through the trace's own mutex.
	tr *trace.Trace

	// attempts counts device failures this request survived; exclude is
	// the bitmask of device ids those failures occurred on. Guarded by
	// s.mu (a request is owned by one worker at a time, but failover hands
	// it between workers through the scheduler lock).
	attempts int
	exclude  uint64
	// settled flips when the request's outcome is delivered; it makes
	// settlement idempotent so the normal path, the failover path, and the
	// worker's panic recovery can race safely. Guarded by s.mu.
	settled bool
}

// outcome is the terminal state of one admitted request.
type outcome struct {
	err       error
	device    string
	class     string
	queueWait time.Duration
	// simLat is the simulated latency the request observed: the fused
	// batch's makespan (a batch member finishes with its batch).
	simLat time.Duration
	// energyJ is the request's share of the batch energy, split by rows.
	energyJ float64
	// batchRows is the total row count of the batch that served the
	// request.
	batchRows int
}

// Scheduler owns the device pool, the bounded admission queue, the
// batching windows, and the predictor-guided dispatcher.
type Scheduler struct {
	cfg     Config
	devices []*poolDevice
	// caches holds one plan/makespan cache per SoC class: the partitioner
	// and the cost-only makespan simulation run once per (model,
	// mechanism, rows) key instead of once per request.
	caches map[string]*core.PlanCache
	mets   *schedMetrics

	// overload is the brownout-ladder controller (nil when the ladder is
	// off); retryB is the fleet-wide failover retry budget (nil when off);
	// overloadStop ends the controller's evaluation loop at drain.
	overload     *overloadController
	retryB       *retryBudget
	overloadStop chan struct{}

	mu       sync.Mutex
	queued   int // admitted but unfinished, across all devices
	draining bool
	open     map[groupKey]*batchGroup

	// hardCtx is canceled when a drain deadline expires: it aborts queued
	// and in-flight work that graceful draining could not finish.
	hardCtx  context.Context
	hardKill context.CancelFunc

	wg sync.WaitGroup
}

// schedMetrics is the scheduler's slice of the metrics registry.
type schedMetrics struct {
	requests   *metrics.CounterVec   // model, soc, mechanism, code
	rejected   *metrics.CounterVec   // reason
	timeouts   *metrics.CounterVec   // stage: queued | running
	batches    *metrics.CounterVec   // soc
	queueWait  *metrics.HistogramVec // soc
	windowWait *metrics.HistogramVec // model
	occupancy  *metrics.HistogramVec // model, soc
	simLat     *metrics.HistogramVec // model, soc, mechanism
	wallLat    *metrics.HistogramVec // model, soc
	inflight   *metrics.GaugeVec     // device
	faults     *metrics.CounterVec   // device, kind
	retries    *metrics.CounterVec   // device (the one that failed)
	quarantine *metrics.CounterVec   // device, transition
	degraded   *metrics.CounterVec   // device
	predErr    *metrics.HistogramVec // proc, kind, mechanism

	admissionRejects *metrics.CounterVec // reason: deadline_infeasible | queue_aged | priority_shed
	watchdogTrips    *metrics.CounterVec // proc (the processor that stalled)
	retryExhausted   *metrics.CounterVec // model
	overloadSteps    *metrics.CounterVec // direction: up | down
}

func newSchedMetrics(reg *metrics.Registry) *schedMetrics {
	return &schedMetrics{
		requests: metrics.NewCounterVec(reg, "mulayer_requests_total",
			"Inference requests by terminal status code.", "model", "soc", "mechanism", "code"),
		rejected: metrics.NewCounterVec(reg, "mulayer_rejected_total",
			"Requests refused at admission.", "reason"),
		timeouts: metrics.NewCounterVec(reg, "mulayer_timeouts_total",
			"Requests whose deadline expired, by stage.", "stage"),
		batches: metrics.NewCounterVec(reg, "mulayer_batches_total",
			"Fused batch executions dispatched, by device class.", "soc"),
		queueWait: metrics.NewHistogramVec(reg, "mulayer_queue_wait_seconds",
			"Wall time from admission to dispatch.", metrics.LatencyBuckets(), "soc"),
		windowWait: metrics.NewHistogramVec(reg, "mulayer_batch_window_wait_seconds",
			"Wall time a batching window stayed open before dispatch.", metrics.LatencyBuckets(), "model"),
		occupancy: metrics.NewHistogramVec(reg, "mulayer_batch_occupancy",
			"Rows fused into one batched execution.", metrics.OccupancyBuckets(), "model", "soc"),
		simLat: metrics.NewHistogramVec(reg, "mulayer_inference_latency_seconds",
			"Simulated on-device inference latency.", metrics.LatencyBuckets(), "model", "soc", "mechanism"),
		wallLat: metrics.NewHistogramVec(reg, "mulayer_wall_seconds",
			"Wall time from admission to completion.", metrics.LatencyBuckets(), "model", "soc"),
		inflight: metrics.NewGaugeVec(reg, "mulayer_inflight",
			"Requests currently executing, by device.", "device"),
		faults: metrics.NewCounterVec(reg, "mulayer_faults_injected_total",
			"Injected fault decisions, by device and kind.", "device", "kind"),
		retries: metrics.NewCounterVec(reg, "mulayer_failover_retries_total",
			"Requests requeued onto another device after a device failure.", "device"),
		quarantine: metrics.NewCounterVec(reg, "mulayer_quarantine_transitions_total",
			"Device circuit-breaker transitions.", "device", "transition"),
		degraded: metrics.NewCounterVec(reg, "mulayer_degraded_batches_total",
			"Batches executed under a degraded (processor-down) plan.", "device"),
		predErr: metrics.NewHistogramVec(reg, "mulayer_predictor_error_ratio",
			"Latency predictor drift: predicted/actual kernel time per processor and layer kind "+
				"(proc \"all\", kind \"network\" rows compare whole-request makespans).",
			metrics.RatioBuckets(), "proc", "kind", "mechanism"),
		admissionRejects: metrics.NewCounterVec(reg, "mulayer_admission_rejects_total",
			"Requests shed by overload protection, by reason.", "reason"),
		watchdogTrips: metrics.NewCounterVec(reg, "mulayer_watchdog_trips_total",
			"Kernel stall watchdog trips, by processor.", "proc"),
		retryExhausted: metrics.NewCounterVec(reg, "mulayer_retry_budget_exhausted_total",
			"Failover retries refused by the per-model retry budget.", "model"),
		overloadSteps: metrics.NewCounterVec(reg, "mulayer_overload_transitions_total",
			"Brownout ladder level transitions, by direction.", "direction"),
	}
}

// NewScheduler builds the pool and starts one worker per device. The
// registry receives the scheduler's metric families.
func NewScheduler(cfg Config, reg *metrics.Registry) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	devices, err := buildPool(cfg)
	if err != nil {
		return nil, err
	}
	caches := make(map[string]*core.PlanCache)
	for _, d := range devices {
		if _, ok := caches[d.class]; !ok {
			caches[d.class] = core.NewPlanCache(d.rt)
		}
	}
	hardCtx, hardKill := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:      cfg,
		devices:  devices,
		caches:   caches,
		mets:     newSchedMetrics(reg),
		open:     make(map[groupKey]*batchGroup),
		hardCtx:  hardCtx,
		hardKill: hardKill,
		retryB:   newRetryBudget(cfg.Overload),
	}
	if cfg.Overload.QueueWaitP95 > 0 {
		s.overload = newOverloadController(cfg.Overload)
		s.overloadStop = make(chan struct{})
	}
	metrics.NewGaugeFunc(reg, "mulayer_overload_level",
		"Current brownout ladder level (0 = normal service).", func() float64 {
			return float64(s.overload.level())
		})
	metrics.NewGaugeFunc(reg, "mulayer_queue_depth",
		"Admitted but unfinished requests across all devices.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queued)
		})
	metrics.NewGaugeFunc(reg, "mulayer_plan_cache_hits_total",
		"Plan/makespan cache hits across all device classes.", func() float64 {
			return float64(s.cacheStats().Hits)
		})
	metrics.NewGaugeFunc(reg, "mulayer_plan_cache_misses_total",
		"Plan/makespan cache misses across all device classes.", func() float64 {
			return float64(s.cacheStats().Misses)
		})
	for _, d := range devices {
		if d.faults != nil {
			dev := d
			dev.faults.Observe = func(kind faults.Kind, proc string) {
				s.mets.faults.With(dev.name, kind.String()).Inc()
			}
		}
		s.wg.Add(1)
		go s.worker(d)
	}
	if s.overload != nil {
		s.wg.Add(1)
		go s.overloadLoop()
	}
	return s, nil
}

// overloadLoop is the brownout controller's evaluation ticker: one ladder
// step decision per EvalEvery, until drain.
func (s *Scheduler) overloadLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Overload.EvalEvery)
	defer t.Stop()
	for {
		select {
		case <-s.overloadStop:
			return
		case now := <-t.C:
			s.mu.Lock()
			empty := s.queued == 0
			s.mu.Unlock()
			switch s.overload.evaluate(now, empty) {
			case "up":
				s.mets.overloadSteps.With("up").Inc()
			case "down":
				s.mets.overloadSteps.With("down").Inc()
			}
		}
	}
}

// OverloadLevel returns the current brownout ladder level (0 when the
// ladder is disabled or calm).
func (s *Scheduler) OverloadLevel() int { return s.overload.level() }

// OverloadStatus is the overload-protection section of /statusz.
type OverloadStatus struct {
	Enabled   bool                 `json:"enabled"`
	Config    OverloadStatusConfig `json:"config"`
	Level     int                  `json:"level"`
	P95MS     float64              `json:"queue_wait_p95_ms"`
	StepsUp   int64                `json:"steps_up"`
	StepsDown int64                `json:"steps_down"`
	// RetryTokens is the per-model retry-budget token level (omitted when
	// budgets are off; a model appears after its first failover attempt).
	RetryTokens map[string]float64 `json:"retry_tokens,omitempty"`
}

// OverloadStatusConfig echoes the active overload configuration.
type OverloadStatusConfig struct {
	DeadlineAdmission bool    `json:"deadline_admission"`
	WatchdogFactor    float64 `json:"watchdog_factor"`
	QueueWaitP95MS    float64 `json:"queue_wait_p95_threshold_ms"`
	RetryRate         float64 `json:"retry_rate"`
	RetryBurst        int     `json:"retry_burst"`
}

// OverloadStatus reports the overload controller's state for /statusz.
func (s *Scheduler) OverloadStatus() OverloadStatus {
	o := s.cfg.Overload
	level, p95, up, down := s.overload.snapshot()
	return OverloadStatus{
		Enabled: o.Enabled(),
		Config: OverloadStatusConfig{
			DeadlineAdmission: o.DeadlineAdmission,
			WatchdogFactor:    o.WatchdogFactor,
			QueueWaitP95MS:    float64(o.QueueWaitP95) / float64(time.Millisecond),
			RetryRate:         o.RetryRate,
			RetryBurst:        o.RetryBurst,
		},
		Level:       level,
		P95MS:       float64(p95) / float64(time.Millisecond),
		StepsUp:     up,
		StepsDown:   down,
		RetryTokens: s.retryB.tokens(time.Now()),
	}
}

// effectiveBatchWait is the batching window under the brownout ladder:
// from level 1 up the configured window is halved per level, trading batch
// occupancy back for queue-wait latency.
func (s *Scheduler) effectiveBatchWait() time.Duration {
	w := s.cfg.BatchWait
	if lvl := s.overload.level(); lvl >= overloadLevelShrinkWindow {
		w >>= uint(lvl)
	}
	return w
}

// wallOf converts a simulated duration to predicted wall time under the
// pacing time scale (0 when pacing is off — predictions then cost nothing).
func (s *Scheduler) wallOf(sim time.Duration) time.Duration {
	if s.cfg.TimeScale <= 0 {
		return 0
	}
	return time.Duration(float64(sim) / s.cfg.TimeScale)
}

// Devices returns the pool (for /statusz).
func (s *Scheduler) Devices() []*poolDevice { return s.devices }

// QueueDepth returns the number of admitted but unfinished requests.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Draining reports whether the scheduler has stopped admitting.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// AllDead reports whether every pool device is dead — the readiness probe
// answers 503 once nothing can serve.
func (s *Scheduler) AllDead() bool {
	for _, d := range s.devices {
		if d.health().State != healthDead {
			return false
		}
	}
	return true
}

// CacheStats aggregates the per-class plan caches (for /statusz).
func (s *Scheduler) CacheStats() core.PlanCacheStats { return s.cacheStats() }

func (s *Scheduler) cacheStats() core.PlanCacheStats {
	var total core.PlanCacheStats
	for _, c := range s.caches {
		st := c.Stats()
		total.Plans += st.Plans
		total.Makespans += st.Makespans
		total.Hits += st.Hits
		total.Misses += st.Misses
	}
	return total
}

// RetryAfter is how long a rejected client should back off, in whole
// seconds: the forecast wait (see forecast) rounded up and clamped to
// [1s, 30s].
func (s *Scheduler) RetryAfter() int {
	_, wait := s.forecast()
	return min(max(int(math.Ceil(wait.Seconds())), 1), 30)
}

// Request is one inference submission's scheduling parameters.
type Request struct {
	// ModelName keys the model in metrics and the retry budget.
	ModelName string
	// Model is the spec model to run.
	Model *models.Model
	// Mech is the execution mechanism.
	Mech core.Mechanism
	// SoC may be empty (any device) or name a configured class.
	SoC string
	// Rows is the number of input rows the request contributes (≥1).
	Rows int
	// Priority is the request's shedding class (zero value PriorityHigh;
	// the HTTP layer defaults absent fields to PriorityNormal).
	Priority Priority
	// Trace, when non-nil, receives queue, batch-window, plan, and kernel
	// spans as the request moves through the scheduler.
	Trace *trace.Trace
}

// Submit admits one request into its batching window and waits out its
// outcome. The returned outcome's err distinguishes admission rejections
// (ErrQueueFull, ErrDraining, ErrNoDevice, ErrPriorityShed,
// ErrDeadlineInfeasible), deadline expiry (the context error), and
// planner errors.
func (s *Scheduler) Submit(ctx context.Context, modelName string, m *models.Model, mech core.Mechanism, socClass string, rows int) outcome {
	return s.SubmitRequest(ctx, Request{
		ModelName: modelName, Model: m, Mech: mech, SoC: socClass,
		Rows: rows, Priority: PriorityNormal,
	})
}

// SubmitRequest is the full submission API: Submit with a priority class
// and an optional trace.
func (s *Scheduler) SubmitRequest(ctx context.Context, req Request) outcome {
	modelName, m, mech := req.ModelName, req.Model, req.Mech
	socClass, rows, tr := req.SoC, req.Rows, req.Trace
	if rows < 1 {
		rows = 1
	}
	// Brownout level 3: the lowest class is rejected before any planning
	// work — shedding must be O(1), not O(queue).
	if req.Priority >= PriorityLow && s.overload.level() >= overloadLevelShedLow {
		s.mets.admissionRejects.With("priority_shed").Inc()
		return outcome{err: ErrPriorityShed}
	}
	// Warm the single-row estimate on every eligible class before the
	// admission decision: it validates the class constraint and surfaces
	// planner errors now, and dispatch-time estimates then hit the cache.
	warmed := map[string]bool{}
	eligible := false
	for _, d := range s.devices {
		if socClass != "" && d.class != socClass {
			continue
		}
		eligible = true
		if warmed[d.class] {
			continue
		}
		warmed[d.class] = true
		if _, err := s.caches[d.class].Estimate(m, runCfg(mech), 1); err != nil {
			return outcome{err: err}
		}
	}
	if !eligible {
		return outcome{err: fmt.Errorf("%w: soc class %q", ErrNoDevice, socClass)}
	}

	p := &pending{
		ctx:       ctx,
		model:     m,
		modelName: modelName,
		mech:      mech,
		soc:       socClass,
		rows:      rows,
		priority:  req.Priority,
		enqueued:  time.Now(),
		done:      make(chan outcome, 1),
		tr:        tr,
	}

	s.mu.Lock()
	if err := (dispatch.BoundedQueue{}).Admit(dispatch.QueueState{
		Depth: s.queued, Cap: s.cfg.QueueDepth, Draining: s.draining,
	}); err != nil {
		s.mu.Unlock()
		if errors.Is(err, dispatch.ErrDraining) {
			s.mets.rejected.With("draining").Inc()
		} else {
			s.mets.rejected.With("queue_full").Inc()
		}
		return outcome{err: err}
	}
	// Deadline-aware admission: the predictor already knows the cheapest
	// device's committed backlog and this request's fused cost; if that
	// predicted completion (plus the batching window it may wait out)
	// cannot fit the deadline, reject now with a typed 503 instead of
	// letting the request rot in the queue toward a certain 504. Inert
	// without pacing: wall predictions are then 0.
	if s.cfg.Overload.DeadlineAdmission {
		now := time.Now()
		if eligible, wall := s.retryCostLocked(p, 0, now); eligible &&
			!deadlineAllows(ctx, wall+s.effectiveBatchWait(), now) {
			s.mu.Unlock()
			s.mets.admissionRejects.With("deadline_infeasible").Inc()
			return outcome{err: fmt.Errorf("%w: predicted completion %v exceeds the deadline", ErrDeadlineInfeasible, wall)}
		}
	}
	s.queued++
	s.enqueueLocked(p)
	s.mu.Unlock()

	select {
	case out := <-p.done:
		return out
	case <-ctx.Done():
		// The worker will observe the dead member when it reaches the
		// batch (or at the end of the fused run) and settle the
		// accounting; the client gets the timeout now.
		return outcome{err: ctx.Err()}
	}
}

// worker drains one device's queue of dispatched batches sequentially. A
// panic escaping a batch (a scheduler bug — injected kernel panics are
// already recovered inside runBatchPaced) is converted to a DeviceError
// and every unsettled member is failed over or settled, so one bad batch
// can neither crash the server nor strand queue entries.
func (s *Scheduler) worker(d *poolDevice) {
	defer s.wg.Done()
	for g := range d.queue {
		s.serveBatchSafe(d, g)
	}
}

func (s *Scheduler) serveBatchSafe(d *poolDevice, g *batchGroup) {
	defer func() {
		if r := recover(); r != nil {
			err := &DeviceError{Device: d.name, Cause: fmt.Errorf("panic: %v", r)}
			s.releaseGroup(d, g)
			s.failMembers(d, g, err)
		}
	}()
	s.serveBatch(d, g)
}

// settleLocked delivers a request's terminal outcome exactly once; it
// returns false when someone settled the request already. Caller holds
// s.mu.
func (s *Scheduler) settleLocked(p *pending, out outcome) bool {
	if !s.claimLocked(p) {
		return false
	}
	p.done <- out
	return true
}

// claimLocked marks p settled and leaves the queue count; it returns
// false when someone settled p already. Caller holds s.mu.
func (s *Scheduler) claimLocked(p *pending) bool {
	if p.settled {
		return false
	}
	p.settled = true
	s.queued--
	return true
}

// settleFinal settles p and records its terminal request metrics. The
// metrics are recorded before the outcome is delivered, so a client
// holding its reply is already counted in them (in /statusz too).
func (s *Scheduler) settleFinal(d *poolDevice, p *pending, out outcome) {
	s.mu.Lock()
	ok := s.claimLocked(p)
	s.mu.Unlock()
	if !ok {
		return
	}
	s.mets.requests.With(p.modelName, d.class, p.mech.String(), fmt.Sprint(statusFor(out.err))).Inc()
	if out.err == nil {
		d.served.Add(1)
		s.mets.simLat.With(p.modelName, d.class, p.mech.String()).Observe(out.simLat.Seconds())
		s.mets.wallLat.With(p.modelName, d.class).Observe(time.Since(p.enqueued).Seconds())
	}
	p.done <- out
}

// releaseGroup returns a dispatched group's backlog and depth charges to
// its device, once, no matter how the batch ended (the worker's panic
// recovery may run after a partial serveBatch).
func (s *Scheduler) releaseGroup(d *poolDevice, g *batchGroup) {
	if g.released {
		return
	}
	g.released = true
	d.backlogNS.Add(-int64(g.cost))
	d.depth.Add(-int64(len(g.items)))
}

// serveBatch runs one dispatched batch on its device and settles every
// member: already-dead members are dropped before the run (their rows
// never touch the device), members whose deadline dies mid-batch get
// their context error, and the rest share the fused execution's report.
// A device failure (injected fault or recovered panic) settles nobody
// directly — live members fail over through failMembers.
func (s *Scheduler) serveBatch(d *poolDevice, g *batchGroup) {
	serveStart := time.Now()
	outs := make([]outcome, len(g.items))
	for i, p := range g.items {
		wait := serveStart.Sub(p.enqueued)
		s.mets.queueWait.With(d.class).Observe(wait.Seconds())
		s.overload.observe(serveStart, wait)
		outs[i] = outcome{device: d.name, class: d.class, queueWait: wait}
		if p.tr != nil {
			// Two wall-clock stages per attempt: the open batching window
			// (admission to seal) and the sealed batch waiting for its
			// device worker.
			p.tr.SetDevice(d.name)
			p.tr.Add("batch-window", 0, p.tr.Offset(p.enqueued), p.tr.Offset(g.dispatched),
				trace.Attr{Key: "attempt", Val: p.attempts})
			p.tr.Add("device-queue", 0, p.tr.Offset(g.dispatched), p.tr.Offset(serveStart),
				trace.Attr{Key: "device", Val: d.name})
		}
	}

	var live []int // indices into g.items joining the fused run
	for i, p := range g.items {
		switch {
		case s.hardCtx.Err() != nil:
			outs[i].err = ErrDraining
		case p.ctx.Err() != nil:
			// Expired while queued: never touched the device.
			outs[i].err = p.ctx.Err()
			s.mets.timeouts.With("queued").Inc()
		case s.cfg.Overload.DeadlineAdmission && !deadlineAllows(p.ctx, s.wallOf(g.cost), serveStart):
			// CoDel-style queue aging: feasible at admission, but the queue
			// wait has since consumed the deadline's headroom — shed the
			// oldest-past-feasibility work before it burns device time.
			outs[i].err = fmt.Errorf("%w: shed after %v queued", ErrDeadlineInfeasible, serveStart.Sub(p.enqueued))
			s.mets.admissionRejects.With("queue_aged").Inc()
		default:
			live = append(live, i)
		}
	}

	var runErr error
	if len(live) == 0 && g.probe {
		// The probe batch produced no verdict; free the half-open slot.
		d.revertProbe()
	}
	if len(live) > 0 {
		fused := make([]exec.FusedItem, len(live))
		var traced []*trace.Trace
		for j, i := range live {
			fused[j] = exec.FusedItem{Ctx: g.items[i].ctx, Rows: g.items[i].rows}
			if tr := g.items[i].tr; tr != nil {
				traced = append(traced, tr)
			}
		}
		res, err := s.runBatchPaced(d, g, fused, traced)
		switch {
		case err != nil && isDeviceFailure(err):
			runErr = err
		case err != nil:
			if g.probe {
				d.revertProbe()
			}
			for _, i := range live {
				outs[i].err = err
			}
		default:
			if recovered := d.recordSuccess(); recovered {
				s.mets.quarantine.With(d.name, "recovered").Inc()
			}
			// res.Rows is what actually ran: members that died while
			// queued never contributed rows to the fused panels.
			for _, i := range live {
				outs[i].batchRows = res.Rows
			}
			s.mets.batches.With(d.class).Inc()
			s.mets.occupancy.With(g.key.model, d.class).Observe(float64(res.Rows))
			for j, i := range live {
				p := g.items[i]
				ir := res.Items[j]
				switch {
				case ir.Err != nil:
					outs[i].err = ir.Err
					s.mets.timeouts.With("running").Inc()
				case p.ctx.Err() != nil:
					// The deadline died during pacing: the batch kept the
					// device (batchmates' results stand) but this member's
					// client is gone.
					outs[i].err = p.ctx.Err()
					s.mets.timeouts.With("running").Inc()
				default:
					outs[i].simLat = ir.Latency
					outs[i].energyJ = res.Report.TotalJ() * float64(p.rows) / float64(res.Rows)
				}
			}
		}
	}

	s.releaseGroup(d, g)

	if runErr != nil {
		// Settle the members that never joined the run, then fail the rest
		// over to other devices.
		for i, p := range g.items {
			if outs[i].err != nil {
				s.settleFinal(d, p, outs[i])
			}
		}
		s.failMembers(d, g, runErr)
		return
	}
	for i, p := range g.items {
		s.settleFinal(d, p, outs[i])
	}
}

// failMembers handles one device failure: it advances the device's
// circuit breaker (recording permanent processor deaths from Die faults)
// and then requeues every unsettled member onto the remaining devices —
// or settles it with a typed 503 when no retry can help (budget spent,
// deadline too tight, no healthy device, draining). Nothing is dropped
// silently: every member either requeues or settles here.
func (s *Scheduler) failMembers(d *poolDevice, g *batchGroup, cause error) {
	var wd *exec.WatchdogError
	if errors.As(cause, &wd) {
		s.mets.watchdogTrips.With(wd.Proc).Inc()
	}
	var f *faults.Fault
	var permDown device.Set
	if errors.As(cause, &f) {
		if f.Device == "" {
			f.Device = d.name
		}
		if f.Kind == faults.Die {
			permDown = f.ProcType.Bit()
		}
	}
	switch d.recordFailure(permDown, s.cfg.FailThreshold, s.cfg.QuarantineBackoff, s.cfg.backoffCap(), time.Now()) {
	case "dead":
		s.mets.quarantine.With(d.name, "dead").Inc()
	case "quarantined":
		s.mets.quarantine.With(d.name, "quarantined").Inc()
	case "degraded":
		s.mets.quarantine.With(d.name, "degraded").Inc()
	}

	now := time.Now()
	for _, p := range g.items {
		s.mu.Lock()
		if p.settled {
			s.mu.Unlock()
			continue
		}
		exclude := p.exclude | 1<<uint(d.id)
		var terminal error
		switch {
		case p.ctx.Err() != nil:
			terminal = p.ctx.Err()
		case s.draining:
			terminal = ErrDraining
		case p.attempts >= s.cfg.MaxRetries:
			terminal = fmt.Errorf("%w (after %d attempts): %w", ErrRetriesExhausted, p.attempts+1, cause)
		default:
			if !s.retryB.allow(p.modelName, now) {
				// The model's fleet-wide retry budget is spent: degrade to a
				// fast typed 503 instead of amplifying a correlated fault
				// into a retry storm.
				terminal = fmt.Errorf("%w: %w", ErrRetryBudgetExhausted, cause)
				s.mets.retryExhausted.With(p.modelName).Inc()
				break
			}
			eligible, wall := s.retryCostLocked(p, exclude, now)
			switch {
			case !eligible:
				terminal = fmt.Errorf("%w: %w", ErrNoHealthyDevice, cause)
			case !deadlineAllows(p.ctx, wall, now):
				terminal = fmt.Errorf("%w: %w", ErrDeadlineTooTight, cause)
			}
		}
		if terminal != nil {
			s.settleLocked(p, outcome{err: terminal, device: d.name, class: d.class})
			s.mu.Unlock()
			s.mets.requests.With(p.modelName, d.class, p.mech.String(), fmt.Sprint(statusFor(terminal))).Inc()
			continue
		}
		p.attempts++
		p.exclude = exclude
		s.mets.retries.With(d.name).Inc()
		s.requeueLocked(p)
		s.mu.Unlock()
	}
}

// retryCostLocked reports whether any device can take a retry of p under
// the exclusion mask, and the cheapest predicted wall-clock completion
// among them. Caller holds s.mu.
func (s *Scheduler) retryCostLocked(p *pending, exclude uint64, now time.Time) (eligible bool, wall time.Duration) {
	var best time.Duration
	for _, d := range s.devices {
		if p.soc != "" && d.class != p.soc {
			continue
		}
		if exclude&(1<<uint(d.id)) != 0 || !d.canServe(now) {
			continue
		}
		est, err := s.caches[d.class].Estimate(p.model, d.runCfg(p.mech), p.rows)
		if err != nil {
			continue
		}
		done := d.predictedCompletion() + est
		if !eligible || done < best {
			eligible, best = true, done
		}
	}
	if s.cfg.TimeScale > 0 {
		wall = time.Duration(float64(best) / s.cfg.TimeScale)
	}
	return eligible, wall
}

// deadlineAllows reports whether a retry predicted to take wall clock time
// fits in the request's remaining deadline.
func deadlineAllows(ctx context.Context, wall time.Duration, now time.Time) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return dl.Sub(now) > wall
}

// runBatchPaced executes the fused batch under the dispatch-time run
// configuration (which carries the device's degraded-mode mask) and, when
// pacing is enabled, occupies the device for the batch's simulated
// makespan scaled by TimeScale — so offered load saturates the pool the
// way it would saturate the modeled hardware. Per-member deadlines ride
// inside the fused run; only a drain hard-kill aborts the batch as a
// whole. The pacing wait also ends once every member's context is done:
// no client is left to use the result, so the device is freed at once
// and serveBatch settles each member with its context error. The
// device's fault injector rides in as the executor's kernel hook; an
// injected kernel panic is recovered here into a DeviceError so the
// worker sees an ordinary device failure.
func (s *Scheduler) runBatchPaced(d *poolDevice, g *batchGroup, fused []exec.FusedItem, traced []*trace.Trace) (res *exec.FusedResult, err error) {
	s.mets.inflight.With(d.name).Add(1)
	defer s.mets.inflight.With(d.name).Add(-1)

	planStart := time.Now()
	plan, planHit, err := s.caches[d.class].PlanCached(g.model, g.rc)
	if err != nil {
		return nil, err
	}
	if len(traced) > 0 {
		planEnd := time.Now()
		sum := plan.Summary()
		for _, tr := range traced {
			tr.Add("plan", 0, tr.Offset(planStart), tr.Offset(planEnd),
				trace.Attr{Key: "cache_hit", Val: planHit},
				trace.Attr{Key: "steps", Val: sum.Steps},
				trace.Attr{Key: "split_layers", Val: sum.SplitLayers},
				trace.Attr{Key: "mean_p", Val: sum.MeanP},
				trace.Attr{Key: "branches", Val: sum.BranchMap()},
				trace.Attr{Key: "predicted_us", Val: float64(plan.Predicted) / float64(time.Microsecond)})
		}
	}
	if g.rc.Unhealthy != 0 {
		s.mets.degraded.With(d.name).Inc()
	}
	var opts core.ExecOpts
	if d.faults != nil {
		opts.Faults = d.faults.Kernel
	}
	// The stall watchdog only arms when a fault hook is present: without
	// one every kernel books exactly its predicted duration, so there is
	// nothing to catch and the healthy path pays nothing.
	opts.WatchdogFactor = s.cfg.Overload.WatchdogFactor
	// With traced members aboard, the executor's trace hook records every
	// booked kernel into one shared capture (the worker is the only
	// goroutine appending) and feeds the predictor-drift histogram: the
	// partitioner-style estimate PredictSplit(layer cost, share) against
	// the cost model's pure kernel time, launch overhead excluded on both
	// sides.
	var capture *trace.Capture
	if len(traced) > 0 {
		capture = &trace.Capture{Device: d.name}
		pred := d.rt.Predictor()
		mechName := g.key.mech.String()
		opts.Trace = func(ev exec.TraceEvent) {
			predicted := pred.PredictSplit(ev.Proc.Name, ev.Kind, ev.DType, ev.Converted, ev.Cost, ev.P)
			if ev.KernelDur > 0 {
				s.mets.predErr.With(ev.Proc.Type.String(), ev.Kind.String(), mechName).
					Observe(float64(predicted) / float64(ev.KernelDur))
			}
			capture.Spans = append(capture.Spans, trace.KernelSpan{
				Proc: ev.Proc.Name, Side: ev.Proc.Type.String(), Label: ev.Label,
				Kind: ev.Kind.String(), Start: ev.Start, End: ev.End,
				P: ev.P, Rows: ev.Rows, Predicted: predicted, Actual: ev.KernelDur,
			})
		}
	}
	start := time.Now()
	res, err = func() (r *exec.FusedResult, e error) {
		defer func() {
			if rec := recover(); rec != nil {
				r, e = nil, &DeviceError{Device: d.name, Cause: fmt.Errorf("panic: %v", rec)}
			}
		}()
		return d.rt.RunBatchPlanOpts(g.model, plan, fused, g.rc, opts)
	}()
	if err != nil {
		var f *faults.Fault
		if errors.As(err, &f) && f.Device == "" {
			f.Device = d.name
		}
		return nil, err
	}
	if s.cfg.TimeScale > 0 {
		pace := time.Duration(float64(res.Report.Latency) / s.cfg.TimeScale)
		if rem := pace - time.Since(start); rem > 0 {
			t := time.NewTimer(rem)
			defer t.Stop()
			gone, stop := allDone(fused)
			defer stop()
			select {
			case <-t.C:
			case <-gone:
			case <-s.hardCtx.Done():
				return nil, ErrDraining
			}
		}
	}
	if len(traced) > 0 {
		end := time.Now()
		capture.Rows = res.Rows
		for _, tr := range traced {
			tr.Add("execute", 0, tr.Offset(start), tr.Offset(end),
				trace.Attr{Key: "device", Val: d.name},
				trace.Attr{Key: "rows", Val: res.Rows},
				trace.Attr{Key: "sim_latency_us", Val: float64(res.Report.Latency) / float64(time.Microsecond)})
			tr.AttachKernels(capture)
		}
		// Network-level drift: the plan's whole-request prediction against
		// the fused makespan. Only a single-row batch is comparable — the
		// plan predicts one inference, the makespan covers the whole batch.
		if res.Rows == 1 && res.Report.Latency > 0 {
			s.mets.predErr.With("all", "network", g.key.mech.String()).
				Observe(float64(plan.Predicted) / float64(res.Report.Latency))
		}
	}
	return res, nil
}

// allDone returns a channel that is closed once every item's context is
// done, and a func that releases the watches.
func allDone(items []exec.FusedItem) (gone <-chan struct{}, stop func()) {
	ch := make(chan struct{})
	var left atomic.Int64
	left.Store(int64(len(items)))
	stops := make([]func() bool, len(items))
	for i, it := range items {
		stops[i] = context.AfterFunc(it.Ctx, func() {
			if left.Add(-1) == 0 {
				close(ch)
			}
		})
	}
	return ch, func() {
		for _, s := range stops {
			s()
		}
	}
}

// Drain stops admitting, seals every open batching window, lets the pool
// finish queued and in-flight work, and waits for the workers to exit.
// When ctx expires first, remaining work is canceled and ctx's error
// returned.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.overloadStop != nil {
			close(s.overloadStop)
		}
		groups := make([]*batchGroup, 0, len(s.open))
		for _, g := range s.open {
			groups = append(groups, g)
		}
		for _, g := range groups {
			s.dispatchLocked(g)
		}
		for _, d := range s.devices {
			close(d.queue)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardKill()
		<-done
		return ctx.Err()
	}
}

// statusFor maps a request outcome error to its HTTP status code.
func statusFor(err error) int {
	switch {
	case err == nil:
		return 200
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining),
		errors.Is(err, ErrRetriesExhausted), errors.Is(err, ErrDeadlineTooTight),
		errors.Is(err, ErrNoHealthyDevice), errors.Is(err, ErrDeadlineInfeasible),
		errors.Is(err, ErrRetryBudgetExhausted), errors.Is(err, ErrPriorityShed):
		return 503
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return 504
	case errors.Is(err, ErrNoDevice):
		return 400
	default:
		return 500
	}
}
