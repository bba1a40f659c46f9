package faults

import (
	"fmt"
	"math/rand"
)

// Stream is a deterministic fault-decision stream: a PRNG seeded from
// (seed, salt), a fault budget, and a single-draw pick over stacked rate
// thresholds. The device Injector and netfaults' per-target injector
// each own one and keep their own kinds, counters and side effects. Not
// safe for concurrent use: the owner's lock guards it.
type Stream struct {
	// Rand draws the extra variates a decision's side effect needs, after
	// Pick and from the same stream.
	*rand.Rand
	budget int // remaining fault budget; -1 = unbounded
}

// splitmix64 mixes the seed with the salt so every owner gets an
// independent deterministic stream from one fleet seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewStream seeds a stream from a fleet seed and a salt naming its owner
// (a device id, a hash of a target). maxFaults bounds the faults Pick
// returns (0 = unbounded).
func NewStream(seed int64, salt uint64, maxFaults int) Stream {
	budget := -1
	if maxFaults > 0 {
		budget = maxFaults
	}
	mixed := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + salt + 1)
	return Stream{Rand: rand.New(rand.NewSource(int64(mixed))), budget: budget}
}

// Pick decides one event with a single uniform draw compared against
// rates stacked in order: it returns the index of the rate whose band
// the draw falls in, or -1 for no fault. One draw per event keeps later
// decisions stable when one rate changes. With the budget spent Pick
// returns -1 without drawing; each fault it returns spends one unit.
func (s *Stream) Pick(rates ...float64) int {
	if s.budget == 0 {
		return -1
	}
	u := s.Float64()
	edge := 0.0
	for i, r := range rates {
		edge += r
		if u < edge {
			if s.budget > 0 {
				s.budget--
			}
			return i
		}
	}
	return -1
}

// Rate is one named per-event fault probability, for ValidateRates.
type Rate struct {
	Name string
	P    float64
}

// ValidateRates checks that each rate lies in [0,1] and that together
// they sum to at most 1, the fault kinds being mutually exclusive per
// event. pkg prefixes the error.
func ValidateRates(pkg string, rates ...Rate) error {
	sum := 0.0
	for _, r := range rates {
		if !(r.P >= 0 && r.P <= 1) { // negated: also rejects NaN
			return fmt.Errorf("%s: %s rate %v outside [0,1]", pkg, r.Name, r.P)
		}
		sum += r.P
	}
	if sum > 1 {
		return fmt.Errorf("%s: rates sum to %v > 1", pkg, sum)
	}
	return nil
}
