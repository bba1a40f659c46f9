package server

import (
	"math"
	"net/http"
	"time"
)

// LoadSignal is the readiness and load reply of GET /readyz: the signal
// the fleet frontend (internal/frontend) probes for and routes by, and a
// small stable schema for ops scripting. /statusz stays the full
// human-oriented view; this reply carries only what a remote placement
// decision needs — readiness, queue pressure, the overload ladder level,
// the recent queue-wait p95, the scheduler's wait forecast, and
// per-device health.
type LoadSignal struct {
	// Ready is true while admitting with at least one device alive;
	// /readyz answers 503 otherwise.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	AllDead  bool `json:"all_dead"`
	// QueueDepth / QueueCap is the bounded admission queue's pressure.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// OverloadLevel is the brownout ladder level (0 = normal service).
	OverloadLevel int `json:"overload_level"`
	// QueueWaitP95MS is the admission-to-dispatch wait p95 in wall
	// milliseconds: the overload controller's recent-window p95 when the
	// ladder is armed, the cumulative histogram's p95 otherwise.
	QueueWaitP95MS float64 `json:"queue_wait_p95_ms"`
	// PredictedWaitMS is the forecast wait of a request arriving now
	// (Scheduler.forecast). Unlike the queue-wait p95 — trailing history,
	// and quantized to histogram bucket bounds — this is an exact forward
	// prediction of current state, so it is the figure remote placement
	// should rank by.
	PredictedWaitMS float64 `json:"predicted_wait_ms"`
	// BacklogMS is the least-loaded serveable device's committed work in
	// wall milliseconds (0 without pacing — makespan predictions then
	// cost no wall time).
	BacklogMS float64 `json:"backlog_ms"`
	// Devices is each device's circuit-breaker health.
	Devices []LoadSignalDevice `json:"devices"`
}

// LoadSignalDevice is one device's health row in the load signal.
type LoadSignalDevice struct {
	Device string `json:"device"`
	SoC    string `json:"soc"`
	// Health is ok | quarantined | probing | dead.
	Health string `json:"health"`
	// Down lists permanently dead processors ("none" when whole).
	Down string `json:"down"`
}

// signalRow is the device's health row, shared by /readyz and /statusz.
func (d *poolDevice) signalRow(h healthSnapshot) LoadSignalDevice {
	return LoadSignalDevice{Device: d.name, SoC: d.class, Health: h.State.String(), Down: h.Down.String()}
}

// LoadSignal assembles the /readyz reply.
func (s *Server) LoadSignal() LoadSignal {
	draining := !s.healthy.Load() || s.sched.Draining()
	allDead := s.sched.AllDead()
	backlog, wait := s.sched.forecast()
	sig := LoadSignal{
		Ready:           !draining && !allDead,
		Draining:        draining,
		AllDead:         allDead,
		QueueDepth:      s.sched.QueueDepth(),
		QueueCap:        s.cfg.QueueDepth,
		OverloadLevel:   s.sched.OverloadLevel(),
		QueueWaitP95MS:  s.sched.queueWaitP95MS(),
		PredictedWaitMS: float64(wait) / float64(time.Millisecond),
		BacklogMS:       float64(backlog) / float64(time.Millisecond),
	}
	for _, d := range s.sched.Devices() {
		sig.Devices = append(sig.Devices, d.signalRow(d.health()))
	}
	return sig
}

// handleReadyz is the readiness probe: 503 while draining and 503 once
// every pool device is dead; otherwise 200. The body is always the load
// signal, so one probe carries health and load, and an operator can see
// a partial outage before it becomes a total one.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sig := s.LoadSignal()
	code := http.StatusOK
	if !sig.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, sig)
}

// queueWaitP95MS is the queue-wait p95 in wall milliseconds: the
// overload controller's recent window when armed (responsive under
// shifting load), otherwise the worst per-class p95 of the cumulative
// histogram.
func (s *Scheduler) queueWaitP95MS() float64 {
	if s.overload != nil {
		_, p95, _, _ := s.overload.snapshot()
		return float64(p95) / float64(time.Millisecond)
	}
	var worst float64
	_, hists := s.mets.queueWait.Snapshot()
	for _, h := range hists {
		if h.Count() == 0 {
			continue
		}
		if p := h.Quantile(0.95) * 1e3; p > worst {
			worst = p
		}
	}
	return worst
}

// forecast is the scheduler's one wait forecast, in wall time over the
// devices that can serve now: backlog is the least-loaded serveable
// device's committed work, and wait adds the fused cost of every open
// batching window and the window time left before the last of them
// seals. Both are 0 when no device can serve. The load signal exports it
// and Retry-After is derived from it.
func (s *Scheduler) forecast() (backlog, wait time.Duration) {
	now := time.Now()
	least, ok := time.Duration(math.MaxInt64), false
	for _, d := range s.devices {
		if d.canServe(now) {
			ok = true
			least = min(least, d.predictedCompletion())
		}
	}
	if !ok {
		return 0, 0
	}
	openCost, windowRem := s.openWindowCost()
	return s.wallOf(least), s.wallOf(least+openCost) + windowRem
}

// openWindowCost is the predicted fused cost of every still-open
// batching window (simulated time, cheapest eligible class per window)
// and the wall-clock window time left before the last of them seals.
func (s *Scheduler) openWindowCost() (openCost, windowRem time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.open {
		var cheapest time.Duration
		for i, d := range s.devices {
			if !s.firstOfClass(i) || g.key.soc != "" && d.class != g.key.soc {
				continue
			}
			if est, err := d.rt.Estimate(g.model, runCfg(g.key.mech), g.rows); err == nil {
				if cheapest == 0 || est < cheapest {
					cheapest = est
				}
			}
		}
		openCost += cheapest
		if rem := s.effectiveBatchWait() - time.Since(g.opened); rem > windowRem {
			windowRem = rem
		}
	}
	return openCost, windowRem
}
