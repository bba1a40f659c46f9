package dispatch

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestBoundedQueueAdmit(t *testing.T) {
	var p BoundedQueue
	if err := p.Admit(QueueState{Depth: 3, Cap: 4}); err != nil {
		t.Fatalf("under capacity: %v", err)
	}
	if err := p.Admit(QueueState{Depth: 4, Cap: 4}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("at capacity: got %v, want ErrQueueFull", err)
	}
	if err := p.Admit(QueueState{Depth: 1 << 20, Cap: 0}); err != nil {
		t.Fatalf("unbounded queue: %v", err)
	}
	if err := p.Admit(QueueState{Depth: 0, Cap: 4, Draining: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: got %v, want ErrDraining", err)
	}
	// Draining wins over queue-full: the caller should see the drain.
	if err := p.Admit(QueueState{Depth: 9, Cap: 4, Draining: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining at capacity: got %v, want ErrDraining", err)
	}
}

func TestMinCompletionRank(t *testing.T) {
	cands := []Candidate{
		{ID: "a", Done: 30 * time.Millisecond},
		{ID: "b", Done: 10 * time.Millisecond},
		{ID: "c", Done: 20 * time.Millisecond},
	}
	got := MinCompletion{}.Rank("ignored", cands)
	if len(got) != 3 {
		t.Fatalf("rank length %d", len(got))
	}
	for r, want := range []string{"b", "c", "a"} {
		if id := cands[got[r].Index].ID; id != want {
			t.Errorf("rank %d: got %s, want %s", r, id, want)
		}
		if got[r].Reason != ReasonLeastLoad {
			t.Errorf("rank %d reason %q", r, got[r].Reason)
		}
	}
	// Ties keep candidate order (deterministic dispatch).
	tied := []Candidate{{ID: "x"}, {ID: "y"}, {ID: "z"}}
	got = MinCompletion{}.Rank("", tied)
	for r, want := range []string{"x", "y", "z"} {
		if id := tied[got[r].Index].ID; id != want {
			t.Errorf("tied rank %d: got %s, want %s", r, id, want)
		}
	}
	if got := (MinCompletion{}).Rank("", nil); len(got) != 0 {
		t.Fatalf("no candidates: %v", got)
	}
}

// TestRendezvousAffinity: the same key always ranks the same candidate
// first while loads stay comparable, and distinct keys spread across
// candidates rather than piling onto one.
func TestRendezvousAffinity(t *testing.T) {
	var p RendezvousLeastLoad
	cands := []Candidate{{ID: "b1"}, {ID: "b2"}, {ID: "b3"}, {ID: "b4"}}
	owners := map[string]int{}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("model-%d", i)
		first := p.Rank(key, cands)[0]
		again := p.Rank(key, cands)[0]
		if first.Index != again.Index {
			t.Fatalf("key %s: unstable rank %d vs %d", key, first.Index, again.Index)
		}
		if first.Reason != ReasonAffinity {
			t.Fatalf("key %s: reason %q", key, first.Reason)
		}
		owners[cands[first.Index].ID]++
	}
	if len(owners) < 3 {
		t.Fatalf("64 keys landed on only %d of 4 candidates: %v", len(owners), owners)
	}
}

// TestRendezvousMinimalRemap: dropping one candidate must remap only the
// keys it owned — every other key keeps its owner (the plan-cache
// affinity argument for rendezvous over modulo hashing).
func TestRendezvousMinimalRemap(t *testing.T) {
	var p RendezvousLeastLoad
	all := []Candidate{{ID: "b1"}, {ID: "b2"}, {ID: "b3"}, {ID: "b4"}}
	without := all[:3] // b4 drained
	moved := 0
	for i := 0; i < 128; i++ {
		key := fmt.Sprintf("model-%d", i)
		before := all[p.Rank(key, all)[0].Index].ID
		after := without[p.Rank(key, without)[0].Index].ID
		if before == "b4" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %s moved %s -> %s though its owner stayed", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no key owned the drained candidate; weight hash is degenerate")
	}
}

// TestRendezvousSpill: an overloaded affinity choice yields to the
// least-loaded candidate only when both spill conditions hold.
func TestRendezvousSpill(t *testing.T) {
	p := RendezvousLeastLoad{SpillFactor: 2, SpillMargin: 10 * time.Millisecond}
	cands := []Candidate{{ID: "b1"}, {ID: "b2"}, {ID: "b3"}}
	// Find a key owned by b2 so the test does not depend on hash values.
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if cands[p.Rank(k, cands)[0].Index].ID == "b2" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key hashed to b2")
	}
	set := func(b1, b2, b3 time.Duration) []Candidate {
		return []Candidate{{ID: "b1", Done: b1}, {ID: "b2", Done: b2}, {ID: "b3", Done: b3}}
	}

	// Comparable load: affinity holds.
	comparable := set(40*time.Millisecond, 60*time.Millisecond, 50*time.Millisecond)
	got := p.Rank(key, comparable)
	if comparable[got[0].Index].ID != "b2" || got[0].Reason != ReasonAffinity {
		t.Fatalf("comparable load: %+v (%s)", got[0], comparable[got[0].Index].ID)
	}
	// Past both factor and margin: spill to the least loaded.
	loaded := set(40*time.Millisecond, 200*time.Millisecond, 50*time.Millisecond)
	got = p.Rank(key, loaded)
	if loaded[got[0].Index].ID != "b1" || got[0].Reason != ReasonAffinitySpill {
		t.Fatalf("overloaded affinity head: %+v (%s)", got[0], loaded[got[0].Index].ID)
	}
	// Alternates keep rendezvous order and include the demoted head.
	seen := map[string]bool{}
	for _, d := range got {
		seen[loaded[d.Index].ID] = true
	}
	if len(got) != 3 || !seen["b1"] || !seen["b2"] || !seen["b3"] {
		t.Fatalf("spilled rank lost candidates: %+v", got)
	}
	// Past the factor but inside the absolute margin: no spill (both
	// conditions must hold).
	tiny := set(1*time.Millisecond, 5*time.Millisecond, 3*time.Millisecond)
	got = p.Rank(key, tiny)
	if tiny[got[0].Index].ID != "b2" || got[0].Reason != ReasonAffinity {
		t.Fatalf("inside margin: %+v", got[0])
	}
	// Past the margin but inside the factor: no spill.
	got = p.Rank(key, set(100*time.Millisecond, 150*time.Millisecond, 120*time.Millisecond))
	if got[0].Reason != ReasonAffinity {
		t.Fatalf("inside factor: %+v", got[0])
	}
}

// TestRendezvousSingleCandidate: one candidate is always picked, loaded
// or not.
func TestRendezvousSingleCandidate(t *testing.T) {
	var p RendezvousLeastLoad
	got := p.Rank("m", []Candidate{{ID: "only", Done: time.Hour}})
	if len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("single candidate: %+v", got)
	}
}

// TestWindowP95Rank: the p95 of n samples is the one at rank ⌈0.95n⌉−1
// in ascending order, for every n the ring can hold, whatever order the
// samples arrived in.
func TestWindowP95Rank(t *testing.T) {
	const size = 512
	base := time.Unix(1000, 0)
	for n := 1; n <= size; n++ {
		w := NewWindow(size)
		for i := 0; i < n; i++ {
			// Values 1..n ms, out of order: i·7 mod n + 1 permutes them
			// when 7 does not divide n, otherwise they arrive descending.
			v := n - i
			if n%7 != 0 {
				v = (i*7)%n + 1
			}
			w.Add(base.Add(time.Duration(i)), time.Duration(v)*time.Millisecond)
		}
		want := time.Duration(int(math.Ceil(0.95*float64(n)))) * time.Millisecond
		if got, m := w.P95(time.Time{}); got != want || m != n {
			t.Fatalf("n=%d: p95 %v over %d samples, want %v over %d", n, got, m, want, n)
		}
	}
}

// TestWindowHorizonStrict: P95 counts only samples taken strictly after
// the horizon, and an empty selection reads 0, 0.
func TestWindowHorizonStrict(t *testing.T) {
	w := NewWindow(8)
	base := time.Unix(1000, 0)
	for i := 0; i < 4; i++ {
		w.Add(base.Add(time.Duration(i)*time.Second), time.Duration(i+1)*time.Millisecond)
	}
	if got, n := w.P95(base.Add(2 * time.Second)); got != 4*time.Millisecond || n != 1 {
		t.Fatalf("after the third sample: %v over %d, want 4ms over 1", got, n)
	}
	if got, n := w.P95(base.Add(2*time.Second - 1)); got != 4*time.Millisecond || n != 2 {
		t.Fatalf("just before the third sample: %v over %d, want 4ms over 2", got, n)
	}
	if got, n := w.P95(base.Add(3 * time.Second)); got != 0 || n != 0 {
		t.Fatalf("at the newest sample: %v over %d, want 0 over 0", got, n)
	}
}

// TestWindowOverwritesOldest: a full ring drops its oldest sample first,
// and Reset empties it.
func TestWindowOverwritesOldest(t *testing.T) {
	w := NewWindow(3)
	if got, n := w.P95(time.Time{}); got != 0 || n != 0 || w.Len() != 0 {
		t.Fatalf("empty window: %v over %d, Len %d", got, n, w.Len())
	}
	base := time.Unix(1000, 0)
	for i, ms := range []int{100, 1, 2, 3} {
		w.Add(base.Add(time.Duration(i)*time.Second), time.Duration(ms)*time.Millisecond)
	}
	if w.Len() != 3 {
		t.Fatalf("Len %d after four adds to a ring of 3", w.Len())
	}
	if got, _ := w.P95(time.Time{}); got != 3*time.Millisecond {
		t.Fatalf("p95 %v, want 3ms once the 100ms sample is overwritten", got)
	}
	w.Reset()
	if got, n := w.P95(time.Time{}); got != 0 || n != 0 || w.Len() != 0 {
		t.Fatalf("after Reset: %v over %d, Len %d", got, n, w.Len())
	}
	w.Add(base, time.Millisecond)
	if got, n := w.P95(time.Time{}); got != time.Millisecond || n != 1 {
		t.Fatalf("after Reset and one add: %v over %d", got, n)
	}
}

// TestWindowP95NoAlloc: P95 ranks a full window in its reusable scratch
// slice, so it allocates nothing (the frontend's hedge delay calls it on
// every hedgeable request), and reuse leaves the samples and the answer
// unchanged.
func TestWindowP95NoAlloc(t *testing.T) {
	const size = 256
	w := NewWindow(size)
	base := time.Unix(1000, 0)
	for i := 0; i < size; i++ {
		w.Add(base.Add(time.Duration(i)*time.Second), time.Duration(size-i)*time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.P95(time.Time{}) }); allocs != 0 {
		t.Fatalf("P95 of a full window allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.P95(base.Add(size / 2 * time.Second)) }); allocs != 0 {
		t.Fatalf("P95 over a horizon allocates %v times, want 0", allocs)
	}
	// ⌈0.95·256⌉ = 244: the 244th smallest of 1..256 ms.
	if got, n := w.P95(time.Time{}); got != 244*time.Millisecond || n != size {
		t.Fatalf("p95 %v over %d after reuse, want 244ms over %d", got, n, size)
	}
	// The 127 samples after the horizon are 1..127 ms; ⌈0.95·127⌉ = 121.
	if got, n := w.P95(base.Add(size / 2 * time.Second)); got != 121*time.Millisecond || n != 127 {
		t.Fatalf("p95 %v over %d past the horizon, want 121ms over 127", got, n)
	}
}
