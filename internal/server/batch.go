package server

import (
	"time"

	"mulayer/internal/core"
	"mulayer/internal/dispatch"
	"mulayer/internal/models"
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

// enqueueLocked adds an admitted request to its batching window, opening
// one (with its flush timer) if needed and dispatching when the window
// fills. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(p *pending) {
	key := groupKey{model: p.modelName, mech: p.mech, soc: p.soc, exclude: p.exclude}
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

// dispatchLocked seals a window and hands it to the device the placement
// policy picks — by default the minimum predicted completion time for the
// fused batch: the makespan argument of the single-request dispatcher,
// evaluated at the batch's actual row count via the per-class plan cache.
// Devices that are quarantined (backoff pending), probing, dead, or on
// the group's exclusion list are skipped; a degraded device is costed
// under its own degraded plan. Picking a quarantined-past-backoff device
// claims its half-open probe slot. Caller holds s.mu.
func (s *Scheduler) dispatchLocked(g *batchGroup) {
	g.flushed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	delete(s.open, g.key)
	s.mets.windowWait.With(g.key.model).Observe(time.Since(g.opened).Seconds())

	now := time.Now()
	g.dispatched = now
	// Candidates for the shared placement policy: every eligible device
	// with its predicted completion for this batch (backlog + fused cost).
	type devChoice struct {
		d    *poolDevice
		rc   core.RunConfig
		cost time.Duration
	}
	var cands []dispatch.Candidate
	var choices []devChoice
	var lastErr error
	classSeen := false
	for _, d := range s.devices {
		if g.key.soc != "" && d.class != g.key.soc {
			continue
		}
		classSeen = true
		if g.key.exclude&(1<<uint(d.id)) != 0 || !d.canServe(now) {
			continue
		}
		rc := d.runCfg(g.key.mech)
		cost, err := s.caches[d.class].Estimate(g.model, rc, g.rows)
		if err != nil {
			// A degraded device may be unable to plan this mechanism at
			// all (e.g. cpu-only with the CPU down); skip it rather than
			// failing the group — another device may still serve it.
			lastErr = err
			continue
		}
		cands = append(cands, dispatch.Candidate{ID: d.name, Done: d.predictedCompletion() + cost})
		choices = append(choices, devChoice{d: d, rc: rc, cost: cost})
	}
	ranked := dispatch.MinCompletion{}.Rank(g.key.model, cands)
	if len(ranked) == 0 {
		switch {
		case !classSeen:
			s.settleGroupLocked(g, ErrNoDevice)
		case lastErr != nil:
			s.settleGroupLocked(g, lastErr)
		default:
			s.settleGroupLocked(g, ErrNoHealthyDevice)
		}
		return
	}
	pick := choices[ranked[0].Index]
	best, bestCost := pick.d, pick.cost
	g.cost = bestCost
	g.rc = pick.rc
	if best.noteDispatch() {
		g.probe = true
		s.mets.quarantine.With(best.name, "probe").Inc()
	}
	best.backlogNS.Add(int64(bestCost))
	best.depth.Add(int64(len(g.items)))
	// The queue's capacity equals the global request bound and every group
	// holds at least one request, so this send cannot block; holding the
	// mutex across it keeps Drain's close safe.
	best.queue <- g
}

// requeueLocked re-dispatches one member of a failed batch immediately as
// its own group: retries skip the batching window — their deadline already
// absorbed one queue wait. Caller holds s.mu.
func (s *Scheduler) requeueLocked(p *pending) {
	g := &batchGroup{
		key:    groupKey{model: p.modelName, mech: p.mech, soc: p.soc, exclude: p.exclude},
		model:  p.model,
		items:  []*pending{p},
		rows:   p.rows,
		opened: time.Now(),
	}
	s.dispatchLocked(g)
}

// settleGroupLocked fails every member of an undispatched group. Caller
// holds s.mu.
func (s *Scheduler) settleGroupLocked(g *batchGroup, err error) {
	for _, p := range g.items {
		s.settleLocked(p, outcome{err: err})
	}
}
