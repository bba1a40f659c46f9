package server

import (
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

// procSetOfType maps a device processor class to its core mask bit.
func procSetOfType(t device.Type) core.ProcSet {
	switch t {
	case device.CPU:
		return core.ProcSetCPU
	case device.NPU:
		return core.ProcSetNPU
	}
	return core.ProcSetGPU
}

// healthSnapshot is one device's health view (for /readyz and /statusz).
type healthSnapshot struct {
	State    healthState
	Down     core.ProcSet
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
func (d *poolDevice) recordFailure(permDown core.ProcSet, threshold int, backoff, backoffMax time.Duration, now time.Time) string {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	d.down |= permDown
	if d.down.Has(core.ProcSetCPU) && d.down.Has(core.ProcSetGPU) {
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
