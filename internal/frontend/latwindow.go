package frontend

import (
	"sort"
	"time"
)

// latWindow is a fixed-size ring of recent latencies: the proxy's
// hedge-delay history and each backend's ejector window. It holds no lock
// of its own; its owner guards it.
type latWindow struct {
	buf  []time.Duration
	n    int
	next int
}

func newLatWindow(size int) latWindow {
	return latWindow{buf: make([]time.Duration, size)}
}

// add records one latency, overwriting the oldest once the ring is full.
func (w *latWindow) add(d time.Duration) {
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// reset empties the window.
func (w *latWindow) reset() { w.n, w.next = 0, 0 }

// samples copies out the recorded latencies, so the caller can sort them
// without holding the owner's lock.
func (w *latWindow) samples() []time.Duration {
	return append([]time.Duration(nil), w.buf[:w.n]...)
}

// p95 sorts s in place and returns its 95th percentile (0 when empty).
func p95(s []time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*95+99)/100-1]
}
