package server

import (
	"math"
	"net/http"
	"time"
)

// LoadSignal is the machine-readable load and health summary served at
// GET /statusz.json: the signal the fleet frontend (internal/frontend)
// routes by, and a small stable schema for ops scripting. /statusz stays
// the full human-oriented view; this endpoint carries only what a remote
// placement decision needs — readiness, queue pressure, the overload
// ladder level, the recent queue-wait p95, the least-loaded device's
// predicted backlog, and per-device health.
type LoadSignal struct {
	// Ready mirrors /readyz: admitting and at least one device alive.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// QueueDepth / QueueCap is the bounded admission queue's pressure.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// OverloadLevel is the brownout ladder level (0 = normal service).
	OverloadLevel int `json:"overload_level"`
	// QueueWaitP95MS is the admission-to-dispatch wait p95 in wall
	// milliseconds: the overload controller's recent-window p95 when the
	// ladder is armed, the cumulative histogram's p95 otherwise.
	QueueWaitP95MS float64 `json:"queue_wait_p95_ms"`
	// PredictedWaitMS is the predicted wall-clock completion for a
	// request arriving now: committed device backlog plus every open
	// batching window's fused cost plus the window time left. Unlike the
	// queue-wait p95 — trailing history, and quantized to histogram
	// bucket bounds — this is an exact forward prediction of current
	// state, so it is the figure remote placement should rank by.
	PredictedWaitMS float64 `json:"predicted_wait_ms"`
	// BacklogMS is the least-loaded serveable device's predicted
	// completion time in wall milliseconds (0 without pacing — makespan
	// predictions then cost no wall time).
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
}

// LoadSignal assembles the /statusz.json reply.
func (s *Server) LoadSignal() LoadSignal {
	draining := !s.healthy.Load() || s.sched.Draining()
	sig := LoadSignal{
		Ready:           !draining && !s.sched.AllDead(),
		Draining:        draining,
		QueueDepth:      s.sched.QueueDepth(),
		QueueCap:        s.cfg.QueueDepth,
		OverloadLevel:   s.sched.OverloadLevel(),
		QueueWaitP95MS:  s.sched.queueWaitP95MS(),
		PredictedWaitMS: s.sched.predictedWaitMS(),
		BacklogMS:       s.sched.minBacklogMS(),
	}
	for _, d := range s.sched.Devices() {
		sig.Devices = append(sig.Devices, LoadSignalDevice{
			Device: d.name, SoC: d.class, Health: d.health().State.String(),
		})
	}
	return sig
}

func (s *Server) handleStatuszJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.LoadSignal())
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

// minBacklogMS is the least-loaded serveable device's predicted
// completion, in wall milliseconds under the pacing time scale.
func (s *Scheduler) minBacklogMS() float64 {
	min, ok := s.minServeableBacklog()
	if !ok {
		return 0
	}
	return float64(s.wallOf(min)) / float64(time.Millisecond)
}

// predictedWaitMS is the predicted wall-clock completion for a request
// arriving now: the least-loaded serveable device's committed backlog
// plus the fused cost of every still-open batching window, scaled to
// wall time, plus the wall-clock window time left before the last open
// window seals — the same predictor deadline admission and Retry-After
// run on, exported for the fleet frontend's replica ranking.
func (s *Scheduler) predictedWaitMS() float64 {
	min, ok := s.minServeableBacklog()
	if !ok {
		return 0
	}
	openCost, windowRem := s.openWindowCost()
	wall := s.wallOf(min+openCost) + windowRem
	return float64(wall) / float64(time.Millisecond)
}

// minServeableBacklog is the least-loaded serveable device's predicted
// completion in simulated time; ok is false when nothing can serve.
func (s *Scheduler) minServeableBacklog() (min time.Duration, ok bool) {
	now := time.Now()
	min = time.Duration(math.MaxInt64)
	for _, d := range s.devices {
		if !d.canServe(now) {
			continue
		}
		ok = true
		if b := d.predictedCompletion(); b < min {
			min = b
		}
	}
	return min, ok
}
