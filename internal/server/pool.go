package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mulayer/internal/breaker"
	"mulayer/internal/core"
	"mulayer/internal/faults"
)

// poolDevice is one simulated device: a core.Runtime plus its dispatch
// queue. A simulated SoC runs one inference at a time, so each device is
// served by exactly one worker goroutine; concurrency comes from the pool
// having many devices.
type poolDevice struct {
	id    int
	name  string // e.g. "high-0"
	class string // SoC class name ("high", "mid", ...)
	rt    *core.Runtime

	// queue carries dispatched batches; its capacity equals the global
	// request bound and every batch holds at least one request, so sends
	// under the scheduler mutex can never block.
	queue chan *batchGroup

	// backlogNS is the predicted fused makespan of every dispatched but
	// unfinished batch on this device — the makespan term the dispatcher
	// minimizes.
	backlogNS atomic.Int64
	// depth is the number of dispatched but unfinished requests.
	depth atomic.Int64
	// served counts completed (2xx) inferences.
	served atomic.Int64

	// faults is the device's fault injector; nil when injection is off (the
	// executor hook is then nil too — the healthy path pays nothing).
	faults *faults.Injector

	// Circuit-breaker state, guarded by hmu. Lock order: s.mu may be held
	// when taking hmu, never the reverse.
	hmu  sync.Mutex
	br   breaker.Breaker
	down core.ProcSet // processors that died permanently
	dead bool         // both CPU and GPU died: terminal, whatever br says
}

// buildPool instantiates the device pool: Workers independent runtimes
// per configured SoC class.
func buildPool(cfg Config) ([]*poolDevice, error) {
	var pool []*poolDevice
	for _, spec := range cfg.SoCs {
		for w := 0; w < spec.Workers; w++ {
			rt, err := core.NewRuntime(spec.SoC())
			if err != nil {
				return nil, fmt.Errorf("server: build %s device %d: %w", spec.Name, w, err)
			}
			d := &poolDevice{
				id:    len(pool),
				name:  fmt.Sprintf("%s-%d", spec.Name, w),
				class: spec.Name,
				rt:    rt,
				queue: make(chan *batchGroup, cfg.QueueDepth),
			}
			// Class-specific fault configs win over the "" catch-all; a
			// per-device salt gives every device its own deterministic
			// stream from the one fleet seed.
			if fc, ok := cfg.Faults[spec.Name]; ok && fc.Enabled() {
				d.faults = faults.New(fc, int64(d.id))
			} else if fc, ok := cfg.Faults[""]; ok && fc.Enabled() {
				d.faults = faults.New(fc, int64(d.id))
			}
			pool = append(pool, d)
		}
	}
	return pool, nil
}

// predictedCompletion is the device's current predicted completion time:
// its outstanding backlog in simulated nanoseconds.
func (d *poolDevice) predictedCompletion() time.Duration {
	return time.Duration(d.backlogNS.Load())
}
