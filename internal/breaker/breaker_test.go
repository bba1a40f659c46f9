package breaker

import (
	"math/rand"
	"testing"
	"time"
)

// TestStateStrings pins the state names /statusz and the health
// metrics report.
func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{OK: "ok", Quarantined: "quarantined", Probing: "probing", State(7): "State(7)"} {
		if s.String() != want {
			t.Errorf("State(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestJitterBackoffBounds(t *testing.T) {
	d := 100 * time.Millisecond
	for _, u := range []float64{0, 0.25, 0.5, 0.999} {
		j := Jitter(d, u)
		if j < 75*time.Millisecond || j >= 125*time.Millisecond {
			t.Errorf("Jitter(%v, %v) = %v, want [75ms, 125ms)", d, u, j)
		}
	}
	// Tiny backoffs never jitter to zero (a zero until would half-open
	// the circuit on the very next probe round).
	if j := Jitter(time.Microsecond, 0); j < time.Millisecond {
		t.Errorf("floor: %v", j)
	}
}

func TestBackoffSequence(t *testing.T) {
	b := Backoff{Base: time.Second, Max: 5 * time.Second}
	var cur time.Duration
	var got []time.Duration
	for i := 0; i < 5; i++ {
		cur = b.Next(cur)
		got = append(got, cur)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

// model is the reference the breaker is checked against: the state a
// correct circuit must be in after each operation.
type model struct {
	state    State
	failures int
	backoff  time.Duration // current open period before jitter
}

// TestBreakerModel drives random sequences of failures, successes,
// probe claims and reverts, forced trips and reset failure runs over a
// virtual clock, with and without jitter, and checks every step against
// the model: never ready before the open period ends, at most one probe
// claimed per open episode, backoff doubling from Base and capped at
// Max, jittered open periods in [0.75d, 1.25d) and at least 1ms, and
// success closing the circuit and resetting the backoff.
func TestBreakerModel(t *testing.T) {
	for _, jitter := range []bool{false, true} {
		for seed := int64(1); seed <= 50; seed++ {
			runModel(t, seed, jitter)
		}
	}
}

func runModel(t *testing.T, seed int64, jitter bool) {
	rng := rand.New(rand.NewSource(seed))
	p := Policy{
		Threshold: 1 + rng.Intn(4),
		Backoff: Backoff{
			Base: time.Duration(1+rng.Intn(400)) * 10 * time.Microsecond,
			Max:  time.Duration(1+rng.Intn(8)) * 50 * time.Millisecond,
		},
		Jitter: jitter,
	}
	if p.Backoff.Max < p.Backoff.Base {
		p.Backoff.Max = p.Backoff.Base
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d jitter %v policy %+v: "+format, append([]any{seed, jitter, p}, args...)...)
	}
	var b Breaker
	var m model
	now := time.Unix(1e9, 0)
	// checkOpen verifies the open period just set against the model's
	// expected backoff d: exactly d, or jittered into [0.75d, 1.25d) and
	// never below 1ms.
	checkOpen := func(op string, d time.Duration) {
		t.Helper()
		got := b.Until().Sub(now)
		lo, hi := d, d+1
		if jitter {
			lo = max(time.Duration(float64(d)*0.75), time.Millisecond)
			hi = max(time.Duration(float64(d)*1.25), time.Millisecond+1)
		}
		if got < lo || got >= hi {
			fail("%s: open period %v for backoff %v, want [%v, %v)", op, got, d, lo, hi)
		}
	}
	for step := 0; step < 400; step++ {
		now = now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
		ready := b.Ready(now)
		switch m.state {
		case OK:
			if !ready {
				fail("step %d: closed circuit not ready", step)
			}
		case Quarantined:
			if ready != !now.Before(b.Until()) {
				fail("step %d: ready=%v at %v with open period ending %v", step, ready, now, b.Until())
			}
		case Probing:
			if ready {
				fail("step %d: probing circuit offered more work", step)
			}
		}
		switch op := rng.Intn(6); op {
		case 0, 1: // failure (weighted: circuits must actually open)
			m.failures++
			opened := b.Fail(p, now, rng.Float64())
			wantOpen := m.state == Probing || m.failures >= p.Threshold
			if opened != wantOpen {
				fail("step %d: Fail opened=%v, want %v (state %v, run %d)", step, opened, wantOpen, m.state, m.failures)
			}
			if opened {
				if m.backoff == 0 {
					m.backoff = p.Backoff.Base
				} else {
					m.backoff = min(2*m.backoff, p.Backoff.Max)
				}
				m.state = Quarantined
				checkOpen("Fail", m.backoff)
			}
		case 2: // success
			rec := b.Succeed()
			if rec != (m.state != OK) {
				fail("step %d: Succeed recovered=%v from %v", step, rec, m.state)
			}
			m = model{}
			if !b.Until().IsZero() {
				fail("step %d: closed circuit keeps open period %v", step, b.Until())
			}
		case 3: // a dispatcher or prober claims the probe slot if ready
			if !ready {
				continue
			}
			// Only an open circuit yields the slot, and only once: a
			// claim while probing would be a second probe in one episode.
			got := b.Claim()
			if got != (m.state == Quarantined) {
				fail("step %d: Claim=%v in state %v", step, got, m.state)
			}
			if got {
				m.state = Probing
			}
		case 4: // the probe produced no verdict
			b.Revert()
			if m.state == Probing {
				m.state = Quarantined
				if !b.Ready(now) {
					fail("step %d: reverted probe not ready again", step)
				}
			}
		case 5: // forced trip, or evidence the peer answers
			if rng.Intn(2) == 0 {
				b.ResetFailures()
				m.failures = 0
				break
			}
			d := time.Duration(1+rng.Intn(200)) * time.Millisecond
			b.Trip(p, now, d, rng.Float64())
			m.state, m.backoff = Quarantined, d
			checkOpen("Trip", d)
		}
		if b.State() != m.state || b.Failures() != m.failures {
			fail("step %d: breaker %v/%d failures, model %v/%d", step, b.State(), b.Failures(), m.state, m.failures)
		}
	}
}
