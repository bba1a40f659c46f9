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
	"mulayer/internal/exec"
	"mulayer/internal/faults"
	"mulayer/internal/models"
	"mulayer/internal/server/metrics"
	"mulayer/internal/trace"
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
	cfg Config
	// devices lists the pool by class: a class's devices are contiguous
	// and share one runtime, whose memo runs the partitioner and the
	// cost-only makespan simulation once per (model, mechanism, rows) key
	// instead of once per request.
	devices []*poolDevice
	mets    *schedMetrics

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
	hardCtx, hardKill := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:      cfg,
		devices:  devices,
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
			return float64(s.CacheStats().Hits)
		})
	metrics.NewGaugeFunc(reg, "mulayer_plan_cache_misses_total",
		"Plan/makespan cache misses across all device classes.", func() float64 {
			return float64(s.CacheStats().Misses)
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

// wallOf converts a simulated duration to wall time under the pacing time
// scale: how long a paced batch holds its device, and what a predicted
// completion means to a deadline (0 when pacing is off — nothing is paced
// and predictions cost nothing).
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

// firstOfClass reports whether s.devices[i] is the first device of its
// class, and so the one that stands for the class runtime they share.
func (s *Scheduler) firstOfClass(i int) bool {
	return i == 0 || s.devices[i-1].class != s.devices[i].class
}

// CacheStats sums the class runtimes' memo counters (for /statusz).
func (s *Scheduler) CacheStats() core.MemoStats {
	var total core.MemoStats
	for i, d := range s.devices {
		if !s.firstOfClass(i) {
			continue
		}
		st := d.rt.MemoStats()
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
		outs[i] = outcome{queueWait: wait}
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

	// After a device failure only the members that never joined the run
	// settle here; failMembers fails the rest over to other devices. The
	// unlock is deferred so that the worker's panic recovery, which takes
	// s.mu in failMembers, cannot find it held.
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, p := range g.items {
			if runErr == nil || outs[i].err != nil {
				s.settleLocked(d, p, outs[i])
			}
		}
	}()
	if runErr != nil {
		s.failMembers(d, g, runErr)
	}
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
	plan, planHit, err := d.rt.PlanCached(g.model, g.rc)
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
		return d.rt.RunBatchOpts(g.model, fused, g.rc, opts)
	}()
	if err != nil {
		var f *faults.Fault
		if errors.As(err, &f) && f.Device == "" {
			f.Device = d.name
		}
		return nil, err
	}
	if rem := s.wallOf(res.Report.Latency) - time.Since(start); rem > 0 {
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
