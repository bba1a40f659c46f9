package faults

import (
	"fmt"
	"math/rand"
)

// stream is a deterministic fault-decision stream: a PRNG seeded from
// (seed, salt), a fault budget, and a single-draw pick over one config's
// stacked rate thresholds. The device Injector and the Transport's
// per-target injector each own one, count the kind it picks in their
// Stats and then apply their own side effect. Not safe for concurrent
// use: the owner's lock guards it.
type stream struct {
	// Rand draws the extra variates a decision's side effect needs, after
	// pick and from the same stream.
	*rand.Rand
	budget int    // remaining fault budget; -1 = unbounded
	rates  []rate // the config's fault kinds in draw order
}

// splitmix64 mixes the seed with the salt so every owner gets an
// independent deterministic stream from one fleet seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newStream seeds a stream from a fleet seed and a salt naming its owner
// (a device id, a hash of a target) to pick over rates. maxFaults bounds
// the faults pick returns (0 = unbounded).
func newStream(seed int64, salt uint64, maxFaults int, rates []rate) stream {
	budget := -1
	if maxFaults > 0 {
		budget = maxFaults
	}
	mixed := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + salt + 1)
	return stream{Rand: rand.New(rand.NewSource(int64(mixed))), budget: budget, rates: rates}
}

// rate is one fault kind's per-event probability. Each config lists its
// kinds in draw order; pick, validateRates and Config.Enabled all read
// that one list.
type rate struct {
	kind Kind
	p    float64
}

// pick decides one event with a single uniform draw compared against
// the rates stacked in order: it returns the kind whose band the draw falls
// in, or None. One draw per event keeps later decisions stable when one
// rate changes. With the budget spent pick returns None without drawing;
// each fault it returns spends one unit.
func (s *stream) pick() Kind {
	if s.budget == 0 {
		return None
	}
	u := s.Float64()
	edge := 0.0
	for _, r := range s.rates {
		edge += r.p
		if u < edge {
			if s.budget > 0 {
				s.budget--
			}
			return r.kind
		}
	}
	return None
}

// validateRates checks that each rate lies in [0,1] and that together
// they sum to at most 1, the fault kinds being mutually exclusive per
// event. The sum is taken in Kind order, not draw order, so which rate
// sets it rejects does not depend on the order a config lists them in.
// pkg prefixes the error.
func validateRates(pkg string, rates []rate) error {
	var byKind [len(kindNames)]float64
	for _, r := range rates {
		if !(r.p >= 0 && r.p <= 1) { // negated: also rejects NaN
			return fmt.Errorf("%s: %s rate %v outside [0,1]", pkg, r.kind, r.p)
		}
		byKind[r.kind] = r.p
	}
	sum := 0.0
	for _, p := range byKind {
		sum += p
	}
	if sum > 1 {
		return fmt.Errorf("%s: rates sum to %v > 1", pkg, sum)
	}
	return nil
}
