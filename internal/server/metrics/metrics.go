// Package metrics is a small, dependency-free metrics library for the
// serving subsystem: counters, gauges, and histograms, optionally keyed by
// label values, with Prometheus text-format exposition (the subset of the
// format scrapers rely on: HELP/TYPE headers, label escaping, cumulative
// histogram buckets with +Inf, _sum and _count series).
//
// Everything is safe for concurrent use. Counters and gauges are lock-free
// atomics; histograms take a short mutex per observation. Collectors are
// registered once at startup and live for the process lifetime — there is
// no unregistration, matching how the server uses them.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// collector is one named metric family.
type collector interface {
	name() string
	help() string
	kind() string // "counter", "gauge", "histogram"
	write(w io.Writer)
}

// Registry holds a set of metric families and renders them.
type Registry struct {
	mu   sync.Mutex
	fams []collector
	byNm map[string]collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNm: make(map[string]collector)}
}

func (r *Registry) register(c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byNm[c.name()]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", c.name()))
	}
	r.byNm[c.name()] = c
	r.fams = append(r.fams, c)
}

// WriteTo renders every registered family in Prometheus text format,
// families in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]collector, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	var sb strings.Builder
	for _, c := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", c.name(), c.help(), c.name(), c.kind())
		c.write(&sb)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// labelSet formats a sorted, escaped {k="v",...} block ("" when empty).
func labelSet(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	parts := make([]string, 0, len(names)+len(extra)/2)
	for i, n := range names {
		parts = append(parts, n+`="`+escape(values[i])+`"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, extra[i]+`="`+escape(extra[i+1])+`"`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escape applies Prometheus label-value escaping: backslash, double
// quote, and newline.
func escape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// vec is the shared labeled-children machinery.
type vec[T any] struct {
	mu       sync.Mutex
	labels   []string
	children map[string]T
	order    []string
	make     func() T
}

func newVec[T any](labels []string, mk func() T) *vec[T] {
	return &vec[T]{labels: labels, children: make(map[string]T), make: mk}
}

func (v *vec[T]) with(values []string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: got %d label values, want %d (%v)", len(values), len(v.labels), v.labels))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := v.make()
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

// snapshot returns (labelValues, child) pairs sorted by label key for
// stable exposition.
func (v *vec[T]) snapshot() ([][]string, []T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, len(v.order))
	copy(keys, v.order)
	sort.Strings(keys)
	vals := make([][]string, len(keys))
	out := make([]T, len(keys))
	for i, k := range keys {
		if len(k) == 0 && len(v.labels) == 0 {
			vals[i] = nil
		} else {
			vals[i] = strings.Split(k, "\x00")
		}
		out[i] = v.children[k]
	}
	return vals, out
}

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (d must be non-negative).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: counter decrease")
	}
	c.n.Add(d)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	nm, hp string
	v      *vec[*Counter]
}

// NewCounterVec registers a counter family; labels may be empty, in which
// case With() yields the single unlabeled child.
func NewCounterVec(r *Registry, name, help string, labels ...string) *CounterVec {
	c := &CounterVec{nm: name, hp: help, v: newVec(labels, func() *Counter { return &Counter{} })}
	r.register(c)
	return c
}

// With returns the child counter for the given label values, creating it
// on first use.
func (c *CounterVec) With(values ...string) *Counter { return c.v.with(values) }

func (c *CounterVec) name() string { return c.nm }
func (c *CounterVec) help() string { return c.hp }
func (c *CounterVec) kind() string { return "counter" }
func (c *CounterVec) write(w io.Writer) {
	vals, children := c.v.snapshot()
	for i, ch := range children {
		fmt.Fprintf(w, "%s%s %d\n", c.nm, labelSet(c.v.labels, vals[i]), ch.Value())
	}
}

// CounterFunc exposes counters another component keeps, read at scrape
// time: one series per value of one label, fn returning their counts in
// the order of values.
type CounterFunc struct {
	nm, hp, label string
	values        []string
	fn            func() []int64
}

// NewCounterFunc registers a callback-backed counter family.
func NewCounterFunc(r *Registry, name, help, label string, values []string, fn func() []int64) *CounterFunc {
	c := &CounterFunc{nm: name, hp: help, label: label, values: values, fn: fn}
	r.register(c)
	return c
}

func (c *CounterFunc) name() string { return c.nm }
func (c *CounterFunc) help() string { return c.hp }
func (c *CounterFunc) kind() string { return "counter" }
func (c *CounterFunc) write(w io.Writer) {
	for i, n := range c.fn() {
		fmt.Fprintf(w, "%s%s %d\n", c.nm, labelSet([]string{c.label}, c.values[i:i+1]), n)
	}
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	nm, hp string
	v      *vec[*Gauge]
}

// NewGaugeVec registers a gauge family.
func NewGaugeVec(r *Registry, name, help string, labels ...string) *GaugeVec {
	g := &GaugeVec{nm: name, hp: help, v: newVec(labels, func() *Gauge { return &Gauge{} })}
	r.register(g)
	return g
}

// With returns the child gauge for the given label values.
func (g *GaugeVec) With(values ...string) *Gauge { return g.v.with(values) }

func (g *GaugeVec) name() string { return g.nm }
func (g *GaugeVec) help() string { return g.hp }
func (g *GaugeVec) kind() string { return "gauge" }
func (g *GaugeVec) write(w io.Writer) {
	vals, children := g.v.snapshot()
	for i, ch := range children {
		fmt.Fprintf(w, "%s%s %s\n", g.nm, labelSet(g.v.labels, vals[i]), fmtFloat(ch.Value()))
	}
}

// GaugeFunc exposes a value computed at scrape time (e.g. queue depth).
type GaugeFunc struct {
	nm, hp string
	fn     func() float64
}

// NewGaugeFunc registers a callback-backed gauge.
func NewGaugeFunc(r *Registry, name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{nm: name, hp: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) name() string { return g.nm }
func (g *GaugeFunc) help() string { return g.hp }
func (g *GaugeFunc) kind() string { return "gauge" }
func (g *GaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.nm, fmtFloat(g.fn()))
}

// Histogram observes a distribution into fixed cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending, +Inf implicit
	counts []int64   // per-bucket (non-cumulative) counts
	infN   int64
	sum    float64
	totalN int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.totalN++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.infN++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.totalN
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// attributing each bucket's mass to its upper bound — good enough for
// /statusz summaries; Prometheus computes its own from the raw buckets.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.totalN == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.totalN)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// HistogramVec is a family of histograms keyed by label values, all
// sharing one bucket layout.
type HistogramVec struct {
	nm, hp string
	bounds []float64
	v      *vec[*Histogram]
}

// NewHistogramVec registers a histogram family. Bounds must be ascending
// upper bounds; the +Inf bucket is implicit.
func NewHistogramVec(r *Registry, name, help string, bounds []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &HistogramVec{nm: name, hp: help, bounds: bounds,
		v: newVec(labels, func() *Histogram {
			return &Histogram{bounds: bounds, counts: make([]int64, len(bounds))}
		})}
	r.register(h)
	return h
}

// With returns the child histogram for the given label values.
func (h *HistogramVec) With(values ...string) *Histogram { return h.v.with(values) }

// LabelNames returns the family's label names in declaration order.
func (h *HistogramVec) LabelNames() []string {
	out := make([]string, len(h.v.labels))
	copy(out, h.v.labels)
	return out
}

// Snapshot returns the family's children as (labelValues, histogram)
// pairs sorted by label key — the /statusz path to quantile summaries
// without a Prometheus scrape.
func (h *HistogramVec) Snapshot() ([][]string, []*Histogram) {
	return h.v.snapshot()
}

func (h *HistogramVec) name() string { return h.nm }
func (h *HistogramVec) help() string { return h.hp }
func (h *HistogramVec) kind() string { return "histogram" }
func (h *HistogramVec) write(w io.Writer) {
	vals, children := h.v.snapshot()
	for i, ch := range children {
		ch.mu.Lock()
		var cum int64
		for j, b := range ch.bounds {
			cum += ch.counts[j]
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.nm, labelSet(h.v.labels, vals[i], "le", fmtFloat(b)), cum)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.nm, labelSet(h.v.labels, vals[i], "le", "+Inf"), ch.totalN)
		fmt.Fprintf(w, "%s_sum%s %s\n", h.nm, labelSet(h.v.labels, vals[i]), fmtFloat(ch.sum))
		fmt.Fprintf(w, "%s_count%s %d\n", h.nm, labelSet(h.v.labels, vals[i]), ch.totalN)
		ch.mu.Unlock()
	}
}

// LatencyBuckets is an exponential bucket layout (in seconds) spanning
// 100µs to ~100s, suited to both simulated device latencies and wall
// serving latencies.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 21)
	for v := 1e-4; v < 200; v *= 2 {
		out = append(out, v)
	}
	return out
}

// OccupancyBuckets is a power-of-two bucket layout for batch-occupancy
// histograms (rows fused into one batched execution).
func OccupancyBuckets() []float64 {
	out := make([]float64, 0, 7)
	for v := 1.0; v <= 64; v *= 2 {
		out = append(out, v)
	}
	return out
}

// RatioBuckets is a bucket layout for predicted/actual ratio histograms,
// dense around 1.0 (an exact predictor) and widening geometrically toward
// 8× under- and over-estimation.
func RatioBuckets() []float64 {
	return []float64{0.125, 0.25, 0.5, 0.7, 0.8, 0.9, 0.95,
		1.05, 1.1, 1.25, 1.5, 2, 4, 8}
}
