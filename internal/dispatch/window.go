package dispatch

import (
	"slices"
	"time"
)

// Window is a fixed-size ring of recent timestamped latency samples and
// their 95th percentile — the latency signal both tiers steer by: the
// node's brownout ladder reads queue waits over a time horizon, the
// fleet's hedge delay and outlier ejector the last N reply latencies. It
// holds no lock of its own; its owner guards it.
type Window struct {
	buf  []sample
	n    int // samples held
	next int // the slot the next sample overwrites
	// sorted is P95's reusable scratch: the latencies it ranks.
	sorted []time.Duration
}

// sample is one latency and when it was taken, in Unix nanoseconds (half
// the size of a time.Time).
type sample struct {
	at  int64
	lat time.Duration
}

// NewWindow returns an empty window that keeps the last size samples.
func NewWindow(size int) Window {
	return Window{buf: make([]sample, size), sorted: make([]time.Duration, 0, size)}
}

// Add records one latency taken at the given time, overwriting the
// oldest sample once the ring is full.
func (w *Window) Add(at time.Time, lat time.Duration) {
	w.buf[w.next] = sample{at: at.UnixNano(), lat: lat}
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Len returns the number of samples held.
func (w *Window) Len() int { return w.n }

// Reset empties the window.
func (w *Window) Reset() { w.n, w.next = 0, 0 }

// P95 returns the 95th percentile of the samples taken strictly after
// since (of every sample when since is zero) — the one at rank
// ⌈0.95n⌉−1 in ascending order — and their count n; 0, 0 when there
// are none. It allocates nothing: the ranking reuses one scratch slice,
// which the owner's lock guards with the rest of the window.
func (w *Window) P95(since time.Time) (p95 time.Duration, n int) {
	all, cut := since.IsZero(), since.UnixNano()
	lats := w.sorted[:0]
	for _, s := range w.buf[:w.n] {
		if all || s.at > cut {
			lats = append(lats, s.lat)
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	slices.Sort(lats)
	return lats[(len(lats)*95+99)/100-1], len(lats)
}
