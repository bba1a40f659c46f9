// Package breaker is the circuit breaker shared by the serving node's
// devices (internal/server) and the fleet frontend's backends
// (internal/frontend): closed (OK) → open (Quarantined) after a run of
// consecutive failures → half-open (Probing) once the open period has
// expired and one caller has claimed the probe slot. A failed probe
// reopens the circuit with a doubled backoff; a success closes it and
// resets the backoff.
//
// A Breaker holds no lock and reads no clock: its owner guards it with
// the lock that already guards the rest of its state, and passes the
// time and the jitter variate in, so tests drive it over a virtual clock.
package breaker

import (
	"fmt"
	"time"
)

// State is a breaker's circuit state. The strings are the health states
// /statusz reports.
type State int

const (
	// OK: the circuit is closed and the owner takes work normally.
	OK State = iota
	// Quarantined: the circuit is open. No work until the open period
	// expires; then the owner is a probe candidate.
	Quarantined
	// Probing: half-open. Exactly one probe is in flight; success closes
	// the circuit, failure reopens it with a doubled backoff.
	Probing
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Backoff is a capped doubling delay sequence: Base first, then each
// step doubles the previous delay, up to Max.
type Backoff struct {
	Base, Max time.Duration
}

// Next returns the delay that follows cur: Base when cur is zero (a
// reset sequence), otherwise 2·cur capped at Max.
func (b Backoff) Next(cur time.Duration) time.Duration {
	if cur <= 0 {
		return b.Base
	}
	return min(2*cur, b.Max)
}

// Jitter spreads d across [0.75d, 1.25d) so circuits opened together do
// not half-open together (the probe thundering herd against a recovering
// peer). u is a uniform variate in [0, 1). The result is never below 1ms:
// a zero open period would half-open the circuit at once.
func Jitter(d time.Duration, u float64) time.Duration {
	return max(time.Duration(float64(d)*(0.75+float64(0.5*u))), time.Millisecond)
}

// Policy is the owner's breaker configuration, passed to every call that
// may open the circuit, so the zero Breaker is a ready closed circuit.
type Policy struct {
	// Threshold is the run of consecutive failures that opens the circuit.
	Threshold int
	// Backoff sequences the open periods of successive re-openings.
	Backoff Backoff
	// Jitter spreads every open period with Jitter; without it the open
	// period is exactly the backoff.
	Jitter bool
}

// Breaker is one circuit. The zero value is closed. Not safe for
// concurrent use: the owner's lock guards it.
type Breaker struct {
	state    State
	failures int           // consecutive failures
	backoff  time.Duration // the current open period before jitter; 0 once closed
	until    time.Time     // end of the open period
}

// State returns the circuit state.
func (b *Breaker) State() State { return b.state }

// Failures returns the current run of consecutive failures.
func (b *Breaker) Failures() int { return b.failures }

// Until returns when the open period ends (zero while closed).
func (b *Breaker) Until() time.Time { return b.until }

// Ready reports whether the owner may be offered work at now: the circuit
// is closed, or open with its period expired (a probe candidate). A
// probing circuit is not ready — its one probe is already in flight.
func (b *Breaker) Ready(now time.Time) bool {
	switch b.state {
	case OK:
		return true
	case Quarantined:
		return !now.Before(b.until)
	}
	return false
}

// Claim takes the half-open probe slot of an open circuit and reports
// whether this caller holds it. The caller checks Ready first; Claim
// returns false on a closed circuit or a slot already taken.
func (b *Breaker) Claim() bool {
	if b.state != Quarantined {
		return false
	}
	b.state = Probing
	return true
}

// Revert returns a claimed probe slot that produced no verdict. The open
// period stays expired, so the circuit is at once a probe candidate again.
func (b *Breaker) Revert() {
	if b.state == Probing {
		b.state = Quarantined
	}
}

// Succeed records a success: it ends the failure run, closes the circuit
// and resets the backoff. It reports whether the circuit was open.
func (b *Breaker) Succeed() (recovered bool) {
	recovered = b.state != OK
	*b = Breaker{}
	return recovered
}

// ResetFailures ends the failure run without closing the circuit: the
// owner has evidence the peer answers, but not the verdict that closes.
func (b *Breaker) ResetFailures() { b.failures = 0 }

// Fail records one failure at now. At p.Threshold consecutive failures,
// or any failure while probing, the circuit (re)opens for the next
// backoff in p's sequence; u is the jitter variate, unused unless
// p.Jitter. It reports whether the circuit opened.
func (b *Breaker) Fail(p Policy, now time.Time, u float64) bool {
	b.failures++
	if b.state != Probing && b.failures < p.Threshold {
		return false
	}
	b.Trip(p, now, p.Backoff.Next(b.backoff), u)
	return true
}

// Trip forces the circuit open for d from now, whatever the failure run:
// the owner has judged the peer on other evidence. d becomes the current
// backoff, so a failed probe after it doubles from d.
func (b *Breaker) Trip(p Policy, now time.Time, d time.Duration, u float64) {
	b.state = Quarantined
	b.backoff = d
	if p.Jitter {
		d = Jitter(d, u)
	}
	b.until = now.Add(d)
}
