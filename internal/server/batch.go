package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/dispatch"
	"mulayer/internal/models"
	"mulayer/internal/trace"
)

// groupKey identifies one batching window: only requests for the same
// model, mechanism, SoC-class constraint, and failover exclusion set can
// share a fused execution (a retried request must not drag fresh
// batchmates onto its shrunken device set, or vice versa).
type groupKey struct {
	model string
	mech  core.Mechanism
	soc   string // requested class ("" = any device)
	// exclude is the bitmask of device ids the members' retries must avoid
	// (0 for first attempts).
	exclude uint64
}

// batchGroup is one micro-batch: an open accumulation window while in
// s.open, then a dispatched unit of work on a device queue. All mutable
// fields are guarded by the scheduler mutex until dispatch; after dispatch
// the group is owned by exactly one device worker.
type batchGroup struct {
	key    groupKey
	model  *models.Model
	items  []*pending
	rows   int // total rows across items
	opened time.Time
	timer  *time.Timer
	// flushed flips when the group leaves the open set; it makes the
	// window timer, a MaxBatch fill, and Drain idempotent against each
	// other.
	flushed bool
	// cost is the predicted fused makespan charged to the device backlog
	// at dispatch, released when the batch settles.
	cost time.Duration
	// rc is the run configuration chosen at dispatch: it carries the
	// winning device's degraded-mode mask, so the worker executes exactly
	// the plan the dispatcher costed.
	rc core.RunConfig
	// dispatched is when the window sealed and the group was handed to a
	// device queue (stamps the batch-window → device-queue trace boundary).
	dispatched time.Time
	// probe marks the batch as a quarantined device's half-open probe.
	probe bool
	// released flips when the group's backlog/depth charges are returned;
	// it makes the normal path and the worker's panic recovery idempotent.
	released bool
}

// runCfg is the serving run configuration for a mechanism (cost-only:
// serving simulates latency and energy over spec models).
func runCfg(mech core.Mechanism) core.RunConfig {
	return core.RunConfig{Mechanism: mech}
}

// key is the batching window p joins: the model, mechanism and class it
// asked for, and the devices its failed attempts excluded.
func (p *pending) key() groupKey {
	return groupKey{model: p.modelName, mech: p.mech, soc: p.soc, exclude: p.exclude}
}

// enqueueLocked adds an admitted request to its batching window, opening
// one (with its flush timer) if needed and dispatching when the window
// fills. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(p *pending) {
	key := p.key()
	g := s.open[key]
	if g != nil && g.rows+p.rows > s.cfg.MaxBatch {
		// The newcomer would overflow the window: seal it and start fresh.
		s.dispatchLocked(g)
		g = nil
	}
	if g == nil {
		g = &batchGroup{key: key, model: p.model, opened: time.Now()}
		s.open[key] = g
		// The window length comes from the brownout ladder: under overload
		// the configured wait shrinks so queue time is not spent holding
		// windows open for occupancy.
		if wait := s.effectiveBatchWait(); s.cfg.MaxBatch > 1 && wait > 0 {
			g.timer = time.AfterFunc(wait, func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				if !g.flushed {
					s.dispatchLocked(g)
				}
			})
		}
	}
	g.items = append(g.items, p)
	g.rows += p.rows
	if g.rows >= s.cfg.MaxBatch {
		s.dispatchLocked(g)
	}
}

// placement is the device placeLocked picks for a unit of work: the run
// configuration to execute under (it carries the device's degraded-mode
// mask), the work's predicted fused cost there, and its predicted
// completion — the device's committed backlog plus that cost.
type placement struct {
	d    *poolDevice
	rc   core.RunConfig
	cost time.Duration
	done time.Duration
}

// placeLocked picks the device that would finish rows of the key's work
// first: the shared minimum-completion policy (the makespan argument of
// the single-request dispatcher, evaluated at the actual row count via
// the class runtime's memo), ties going to the earlier device. Devices
// outside the key's class or on its exclusion list, quarantined (backoff
// pending), probing or dead are skipped; a degraded device is costed
// under its own degraded plan. With no candidate left the error is
// ErrNoDevice when no device has the class, else the last planner error,
// else ErrNoHealthyDevice. Caller holds s.mu.
func (s *Scheduler) placeLocked(key groupKey, m *models.Model, rows int, now time.Time) (placement, error) {
	var cands []dispatch.Candidate
	var places []placement
	var lastErr error
	classSeen := false
	for _, d := range s.devices {
		if key.soc != "" && d.class != key.soc {
			continue
		}
		classSeen = true
		if key.exclude&(1<<uint(d.id)) != 0 || !d.canServe(now) {
			continue
		}
		rc := d.runCfg(key.mech)
		cost, err := d.rt.Estimate(m, rc, rows)
		if err != nil {
			// A degraded device may be unable to plan this mechanism at
			// all (e.g. cpu-only with the CPU down); skip it — another
			// device may still serve the work.
			lastErr = err
			continue
		}
		pl := placement{d: d, rc: rc, cost: cost, done: d.predictedCompletion() + cost}
		cands = append(cands, dispatch.Candidate{ID: d.name, Done: pl.done})
		places = append(places, pl)
	}
	ranked := dispatch.MinCompletion{}.Rank(key.model, cands)
	switch {
	case len(ranked) > 0:
		return places[ranked[0].Index], nil
	case !classSeen:
		return placement{}, ErrNoDevice
	case lastErr != nil:
		return placement{}, lastErr
	}
	return placement{}, ErrNoHealthyDevice
}

// dispatchLocked seals a window and hands it to the device placeLocked
// picks, or fails every member when no device can take it. Picking a
// quarantined-past-backoff device claims its half-open probe slot. Caller
// holds s.mu.
func (s *Scheduler) dispatchLocked(g *batchGroup) {
	g.flushed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	delete(s.open, g.key)
	s.mets.windowWait.With(g.key.model).Observe(time.Since(g.opened).Seconds())

	g.dispatched = time.Now()
	pl, err := s.placeLocked(g.key, g.model, g.rows, g.dispatched)
	if err != nil {
		for _, p := range g.items {
			s.settleLocked(nil, p, outcome{err: err})
		}
		return
	}
	g.cost, g.rc = pl.cost, pl.rc
	if pl.d.noteDispatch() {
		g.probe = true
		s.mets.quarantine.With(pl.d.name, "probe").Inc()
	}
	pl.d.backlogNS.Add(int64(pl.cost))
	pl.d.depth.Add(int64(len(g.items)))
	// The queue's capacity equals the global request bound and every group
	// holds at least one request, so this send cannot block; holding the
	// mutex across it keeps Drain's close safe.
	pl.d.queue <- g
}

// requeueLocked re-dispatches one member of a failed batch immediately as
// its own group: retries skip the batching window — their deadline already
// absorbed one queue wait. Caller holds s.mu.
func (s *Scheduler) requeueLocked(p *pending) {
	g := &batchGroup{
		key:    p.key(),
		model:  p.model,
		items:  []*pending{p},
		rows:   p.rows,
		opened: time.Now(),
	}
	s.dispatchLocked(g)
}

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
	// planner errors now, and dispatch-time estimates then hit the memo.
	eligible := false
	for i, d := range s.devices {
		if !s.firstOfClass(i) || socClass != "" && d.class != socClass {
			continue
		}
		eligible = true
		if _, err := d.rt.Estimate(m, runCfg(mech), 1); err != nil {
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
		pl, err := s.placeLocked(p.key(), m, rows, now)
		if wall := s.wallOf(pl.done); err == nil && !deadlineAllows(ctx, wall+s.effectiveBatchWait(), now) {
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

// deadlineAllows reports whether a retry predicted to take wall clock time
// fits in the request's remaining deadline.
func deadlineAllows(ctx context.Context, wall time.Duration, now time.Time) bool {
	dl, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return dl.Sub(now) > wall
}
