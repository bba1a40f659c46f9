// Package dispatch holds the admission and placement policies shared by
// the two scheduling tiers: the node-level scheduler (internal/server),
// which places requests on pool devices, and the fleet-level router
// (internal/frontend), which places requests on serve backends. Both
// tiers make the same two decisions — may this work enter the bounded
// queue, and which replica takes it — and both drive the second decision
// with the same signal, a predicted completion time per candidate. The
// paper's makespan argument (pick the split whose predicted finish is
// earliest) generalizes unchanged from channels within a layer (
// internal/partition), to devices within a node (internal/server), to
// backends within a fleet (internal/frontend); this package is the
// decision logic with the tiers supplying the candidates.
package dispatch

import (
	"errors"
	"time"
)

// Typed admission errors. The tiers wrap them with their own context;
// both map them to HTTP 503.
var (
	// ErrQueueFull means the bounded queue is at capacity.
	ErrQueueFull = errors.New("dispatch: queue full")
	// ErrDraining means the tier no longer admits work.
	ErrDraining = errors.New("dispatch: draining")
)

// QueueState is an admission policy's view of the tier's bounded queue.
type QueueState struct {
	// Depth is the number of admitted-but-unfinished units of work.
	Depth int
	// Cap bounds Depth; 0 means unbounded.
	Cap int
	// Draining reports that the tier is shutting down.
	Draining bool
}

// BoundedQueue is the shared admission policy: refuse while draining,
// refuse at capacity, admit otherwise.
type BoundedQueue struct{}

// Admit decides whether one unit of work may enter the queue.
func (BoundedQueue) Admit(q QueueState) error {
	if q.Draining {
		return ErrDraining
	}
	if q.Cap > 0 && q.Depth >= q.Cap {
		return ErrQueueFull
	}
	return nil
}

// Candidate is one placement target a policy may pick: a pool device at
// node level, a serve backend at fleet level.
type Candidate struct {
	// ID names the target ("high-0", "http://127.0.0.1:8081").
	ID string
	// Done is the target's predicted completion time for this unit of
	// work: its committed backlog plus the work's predicted cost. Lower
	// is better; the zero value means "idle as far as we know".
	Done time.Duration
}

// Decision is one ranked placement choice and the reason it holds its
// rank — the label routing-decision metrics count by.
type Decision struct {
	// Index points into the candidate slice given to Rank.
	Index int
	// Reason is "least_load", "affinity", or "affinity_spill".
	Reason string
}

// Placement reasons.
const (
	// ReasonLeastLoad: picked for the earliest predicted completion.
	ReasonLeastLoad = "least_load"
	// ReasonAffinity: picked for key affinity (rendezvous rank).
	ReasonAffinity = "affinity"
	// ReasonAffinitySpill: the affinity choice was overloaded relative to
	// the fleet, so the work spilled to the least-loaded candidate.
	ReasonAffinitySpill = "affinity_spill"
)

// Policy ranks candidates for one unit of work. key carries the work's
// affinity key (the model name at both tiers); policies without affinity
// ignore it. The result is a preference order: element 0 is the pick,
// later elements are the failover/hedge alternates. An empty result
// means no candidate can take the work (only possible with no
// candidates — policies never reject, they only order).
type Policy interface {
	Rank(key string, cands []Candidate) []Decision
}

// MinCompletion is the node-level policy: earliest predicted completion
// first, ties broken by candidate order. This is the paper's makespan
// argument applied across replicas.
type MinCompletion struct{}

// Rank implements Policy by insertion-ranking on Done (candidate counts
// are small at both tiers — a handful of devices or backends).
func (MinCompletion) Rank(_ string, cands []Candidate) []Decision {
	out := make([]Decision, 0, len(cands))
	for i := range cands {
		out = append(out, Decision{Index: i, Reason: ReasonLeastLoad})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && cands[out[j].Index].Done < cands[out[j-1].Index].Done; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RendezvousLeastLoad is the fleet-level policy: highest-random-weight
// (rendezvous) hashing concentrates one key's work on a stable few
// replicas — plan caches stay warm and same-model requests land where
// batch fusion can catch them — while a load-spill guard keeps affinity
// from defeating balancing: when the affinity choice's predicted
// completion is far enough past the fleet's best, the work spills to the
// least-loaded candidate instead.
//
// Both spill conditions must hold, so neither noise source can trigger a
// spill alone: SpillFactor guards against ratio blow-ups between small
// numbers, SpillMargin against absolute jitter on busy replicas.
type RendezvousLeastLoad struct {
	// SpillFactor is the multiple of the best candidate's predicted
	// completion past which affinity yields (≤ 0 means 2×).
	SpillFactor float64
	// SpillMargin is the absolute slack the affinity choice may hold over
	// the best candidate before spilling (≤ 0 means 10ms).
	SpillMargin time.Duration
}

// Defaults for RendezvousLeastLoad's zero value.
const (
	DefaultSpillFactor = 2.0
	DefaultSpillMargin = 10 * time.Millisecond
)

// Rank implements Policy: candidates in descending rendezvous weight for
// key, then the spill guard against the head of the order.
func (p RendezvousLeastLoad) Rank(key string, cands []Candidate) []Decision {
	factor := p.SpillFactor
	if factor <= 0 {
		factor = DefaultSpillFactor
	}
	margin := p.SpillMargin
	if margin <= 0 {
		margin = DefaultSpillMargin
	}
	out := make([]Decision, 0, len(cands))
	weights := make([]uint64, len(cands))
	for i, c := range cands {
		weights[i] = rendezvousWeight(key, c.ID)
		out = append(out, Decision{Index: i, Reason: ReasonAffinity})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && weights[out[j].Index] > weights[out[j-1].Index]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) < 2 {
		return out
	}
	bestLoad, bestAt := cands[out[0].Index].Done, 0
	for r := 1; r < len(out); r++ {
		if d := cands[out[r].Index].Done; d < bestLoad {
			bestLoad, bestAt = d, r
		}
	}
	head := cands[out[0].Index].Done
	if bestAt != 0 &&
		head > time.Duration(float64(bestLoad)*factor) &&
		head > bestLoad+margin {
		// Promote the least-loaded candidate over the overloaded affinity
		// head; the rest keep their rendezvous order as alternates.
		spilled := out[bestAt]
		spilled.Reason = ReasonAffinitySpill
		copy(out[1:bestAt+1], out[:bestAt])
		out[0] = spilled
	}
	return out
}

// rendezvousWeight is the FNV-1a hash of key and id — each (key,
// candidate) pair gets an independent stable weight, so removing one
// candidate only remaps the keys it owned (the property that keeps a
// drain from reshuffling every model's plan-cache affinity).
func rendezvousWeight(key, id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= 0xff // separator: ("ab","c") must not collide with ("a","bc")
	h *= prime64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}
