package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"mulayer/internal/breaker"
	"mulayer/internal/core"
	"mulayer/internal/device"
	"mulayer/internal/exec"
	"mulayer/internal/faults"
)

// Failover errors, mapped to 503 by the handler: the service is degraded,
// not the request malformed.
var (
	// ErrRetriesExhausted means a request kept landing on failing devices
	// until its retry budget ran out.
	ErrRetriesExhausted = errors.New("server: device failed and retries are exhausted")
	// ErrDeadlineTooTight means a device failed and the request's remaining
	// deadline cannot survive a retry on any other device.
	ErrDeadlineTooTight = errors.New("server: device failed and the deadline cannot survive a retry")
	// ErrNoHealthyDevice means every device that could serve the request is
	// quarantined, probing, or dead.
	ErrNoHealthyDevice = errors.New("server: no healthy device")
)

// DeviceError wraps a device-level failure: an injected fault or a panic
// recovered from a device worker. The scheduler treats it as grounds for
// failover rather than a request error.
type DeviceError struct {
	Device string
	Cause  error
}

// Error implements error.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("server: device %s failed: %v", e.Device, e.Cause)
}

// Unwrap implements errors.Unwrap.
func (e *DeviceError) Unwrap() error { return e.Cause }

// isDeviceFailure reports whether err blames the device (failover) rather
// than the request (terminal error). A watchdog trip counts: a kernel
// overrunning its predicted-time budget is a stalled device, and the
// circuit breaker should treat it like any other device fault.
func isDeviceFailure(err error) bool {
	var de *DeviceError
	var f *faults.Fault
	var wd *exec.WatchdogError
	return errors.As(err, &de) || errors.As(err, &f) || errors.As(err, &wd)
}

// healthState is a device's health as /statusz reports it: its
// circuit breaker's state, or healthDead once both CPU and GPU died —
// terminal, so it lives outside the breaker.
type healthState int

const (
	healthOK          = healthState(breaker.OK)
	healthQuarantined = healthState(breaker.Quarantined)
	healthDead        = healthState(-1)
)

// String implements fmt.Stringer.
func (h healthState) String() string {
	if h == healthDead {
		return "dead"
	}
	return breaker.State(h).String()
}

// healthSnapshot is one device's health view (for /readyz and /statusz).
type healthSnapshot struct {
	State    healthState
	Down     device.Set
	Failures int
	Until    time.Time // quarantine expiry (zero unless quarantined)
}

// health returns a consistent snapshot.
func (d *poolDevice) health() healthSnapshot {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	state := healthState(d.br.State())
	if d.dead {
		state = healthDead
	}
	return healthSnapshot{State: state, Down: d.down, Failures: d.br.Failures(), Until: d.br.Until()}
}

// canServe reports whether the dispatcher may consider the device now:
// healthy, or quarantined with the backoff expired (a probe candidate).
// Probing devices are excluded — the half-open circuit admits exactly the
// one probe batch already in flight.
func (d *poolDevice) canServe(now time.Time) bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return !d.dead && d.br.Ready(now)
}

// runCfg returns the device's run configuration for a mechanism — the
// degraded-mode mask rides on RunConfig.Unhealthy, so a device with a dead
// processor plans (and caches plans) around it.
func (d *poolDevice) runCfg(mech core.Mechanism) core.RunConfig {
	d.hmu.Lock()
	down := d.down
	d.hmu.Unlock()
	return core.RunConfig{Mechanism: mech, Unhealthy: down}
}

// noteDispatch claims the half-open probe slot when the dispatcher picks a
// quarantined-past-backoff device; returns true when this dispatch is the
// probe.
func (d *poolDevice) noteDispatch() bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return !d.dead && d.br.Claim()
}

// revertProbe returns a claimed probe slot to quarantine when the probe
// batch produced no verdict (every member died while queued, or the run
// failed for reasons that do not blame the device). The expired backoff
// stays expired, so the device is immediately a probe candidate again.
func (d *poolDevice) revertProbe() {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	d.br.Revert()
}

// recordSuccess closes the circuit after a clean batch.
func (d *poolDevice) recordSuccess() (recovered bool) {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	return d.br.Succeed() && !d.dead
}

// recordFailure applies one device failure to the circuit breaker:
// permDown marks processors the fault killed permanently. It returns the
// transition taken ("" when the failure stayed under the threshold).
// Device open periods are not jittered.
func (d *poolDevice) recordFailure(permDown device.Set, threshold int, backoff, backoffMax time.Duration, now time.Time) string {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	d.down |= permDown
	if d.down.Has(device.CPU) && d.down.Has(device.GPU) {
		d.dead = true
		return "dead"
	}
	p := breaker.Policy{Threshold: threshold, Backoff: breaker.Backoff{Base: backoff, Max: backoffMax}}
	if d.br.Fail(p, now, 0) {
		return "quarantined"
	}
	if permDown != 0 {
		return "degraded"
	}
	return ""
}

// settleLocked ends p with its terminal outcome, once: it marks p
// settled and leaves the queue count, counts p in mulayer_requests_total
// (and, served, in the latency histograms), and only then delivers, so a
// client holding its reply is already counted (in /statusz too). d is the
// device that ran or failed p, nil when no device took it; the soc label
// is then the requested class, or "any". A second settle of p is a no-op.
// Caller holds s.mu.
func (s *Scheduler) settleLocked(d *poolDevice, p *pending, out outcome) {
	if p.settled {
		return
	}
	p.settled = true
	s.queued--
	class := cmp.Or(p.soc, "any")
	if d != nil {
		class, out.device, out.class = d.class, d.name, d.class
	}
	s.mets.requests.With(p.modelName, class, p.mech.String(), fmt.Sprint(statusFor(out.err))).Inc()
	if out.err == nil {
		d.served.Add(1)
		s.mets.simLat.With(p.modelName, class, p.mech.String()).Observe(out.simLat.Seconds())
		s.mets.wallLat.With(p.modelName, class).Observe(time.Since(p.enqueued).Seconds())
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
	if errors.As(cause, &f) && f.Kind == faults.Die {
		permDown = f.ProcType.Bit()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range g.items {
		if p.settled {
			continue
		}
		key := p.key()
		key.exclude |= 1 << uint(d.id)
		var terminal error
		switch {
		case p.ctx.Err() != nil:
			terminal = p.ctx.Err()
		case s.draining:
			terminal = ErrDraining
		case p.attempts >= s.cfg.MaxRetries:
			terminal = fmt.Errorf("%w (after %d attempts): %w", ErrRetriesExhausted, p.attempts+1, cause)
		case !s.retryB.allow(p.modelName, now):
			// The model's fleet-wide retry budget is spent: degrade to a
			// fast typed 503 instead of amplifying a correlated fault into
			// a retry storm.
			terminal = fmt.Errorf("%w: %w", ErrRetryBudgetExhausted, cause)
			s.mets.retryExhausted.With(p.modelName).Inc()
		default:
			if pl, err := s.placeLocked(key, p.model, p.rows, now); err != nil {
				terminal = fmt.Errorf("%w: %w", ErrNoHealthyDevice, cause)
			} else if !deadlineAllows(p.ctx, s.wallOf(pl.done), now) {
				terminal = fmt.Errorf("%w: %w", ErrDeadlineTooTight, cause)
			}
		}
		if terminal != nil {
			s.settleLocked(d, p, outcome{err: terminal})
			continue
		}
		p.attempts++
		p.exclude = key.exclude
		s.mets.retries.With(d.name).Inc()
		s.requeueLocked(p)
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
