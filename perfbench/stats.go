package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mulayer/internal/sim"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond returns how many of n samples lie beyond the nearest-rank
// q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean sums deviations from the first sample, so that the mean of equal
// samples is exactly that sample whatever their count: the simulated
// metrics then repeat bit for bit between runs of different lengths.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var d float64
	for _, x := range xs {
		d += x - xs[0]
	}
	return xs[0] + d/float64(len(xs))
}

// usage is a snapshot of process CPU time and cumulative allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: cpuTime(), alloc: m.TotalAlloc}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// phase is one measured stretch of a workload: its latency samples (ms),
// op counts and resource deltas.
type phase struct {
	lat       []float64
	attempted int
	failed    int
	good      int // ops that succeeded (and met the latency limit, if any)
	elapsed   time.Duration
	before    usage
	after     usage
	simLatMS  []float64
	simEnMJ   []float64
	lateMS    []float64
	reps      []sim.Report
	queueMS   []float64
	rows      []float64
	// closed marks a closed-loop phase.
	closed bool
	// calMS holds calibration kernel times (ms): one after each op of a
	// closed loop, one every openCalibEvery of an open loop.
	calMS []float64
	// workCPU is the process CPU time (ms) of the work before each
	// calibration: a closed loop's op, or an open loop's interval since
	// the previous calibration, whose last entry runs to the phase's end.
	workCPU []float64
}

// hostTime returns the phase's latency samples, successful ops per
// second and CPU time per op, scaled to the reference host speed
// (calib.go). CPU time is scaled piece by piece, each entry of workCPU by
// the host's speed factor around the calibration after it, so the
// kernel's own CPU time is left out. A closed loop's ops are pure CPU
// work, so each op's latency is scaled the same way, and goodput is
// successful ops per second of scaled op time. An open loop's latency is
// mostly paced waiting, which the host does not slow, so its latency and
// goodput are as measured.
func (p *phase) hostTime() (lat []float64, goodput, cpuPerOp float64) {
	f := speedFactors(p.calMS)
	factor := func(i int) float64 {
		if len(f) == 0 {
			return 1 // an open loop shorter than openCalibEvery
		}
		return f[min(i, len(f)-1)]
	}
	var cpuSum float64
	for i, c := range p.workCPU {
		cpuSum += c / factor(i)
	}
	cpuPerOp = cpuSum / float64(p.attempted)
	if !p.closed {
		return p.lat, float64(p.good) / p.elapsed.Seconds(), cpuPerOp
	}
	lat = make([]float64, len(p.lat))
	var latSum float64
	for i := range p.lat {
		lat[i] = p.lat[i] / factor(i)
		latSum += lat[i]
	}
	return lat, float64(p.good) / (latSum / 1e3), cpuPerOp
}

// p50 is the phase's median latency at the reference host speed.
func (p *phase) p50() float64 {
	lat, _, _ := p.hostTime()
	return median(lat)
}

// minBeyondP90 is how many samples a run needs beyond its p90.
const minBeyondP90 = 10

// e2eResult builds the end-to-end result of a measured phase. The live
// heap is read after the phase's own samples are released, while keep
// (the system under test) is still reachable.
func e2eResult(p *phase, setupS float64, keep any) result {
	ops := float64(p.attempted)
	lat, goodput, cpu := p.hostTime()
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"latency_p50_ms":  {percentile(lat, 0.5), "ms"},
		"latency_p90_ms":  {percentile(lat, 0.9), "ms"},
		"goodput_ops_s":   {goodput, "ops/s"},
		"cpu_ms_per_op":   {cpu, "ms"},
		"alloc_kb_per_op": {float64(p.after.alloc-p.before.alloc) / 1024 / ops, "kB"},
		"sim_latency_ms":  {mean(p.simLatMS), "sim-ms"},
		"sim_energy_mj":   {mean(p.simEnMJ), "sim-mJ"},
	}
	res := p.result(m)
	*p = phase{}
	m["live_heap_mb"] = metric{liveHeapMB(), "MB"}
	runtime.KeepAlive(keep)
	return res
}

// medianSetup runs setup n times, tearing down every instance but the
// last, and returns the last instance with the median set-up time in
// seconds at the reference host speed: each set-up's time is scaled by
// refCalib over the mean of the calibration times just before and just
// after it (calib.go).
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(inst)
		}
		runtime.GC()
		before := calibrate()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return inst, 0, err
		}
		d := time.Since(start)
		f := float64(before+calibrate()) / 2 / float64(refCalib)
		times = append(times, d.Seconds()/f)
		inst = v
	}
	return inst, median(times), nil
}

// span is one traced interval: a call into a layer, timed from the
// benchmark's own code.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil tracer records nothing, so untraced phases
// share the traced phases' code. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one span that started at start and ended now.
func (t *tracer) record(name, parent string, op int, start time.Time) {
	t.add(name, parent, op, start, time.Since(start))
}

// add stores one span of duration d that started at start.
func (t *tracer) add(name, parent string, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Start: int64(start.Sub(t.t0)), Dur: int64(d), Parent: parent})
	t.mu.Unlock()
}

// total returns the summed duration and count of spans named name.
func (t *tracer) total(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.Dur)
			n++
		}
	}
	return d, n
}

// meanMS is the mean duration of spans named name, in ms (0 when none).
func (t *tracer) meanMS(name string) float64 {
	d, n := t.total(name)
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// perOpMS is the summed duration of spans named name divided by ops.
func (t *tracer) perOpMS(name string, ops int) float64 {
	d, _ := t.total(name)
	if ops == 0 {
		return 0
	}
	return ms(d) / float64(ops)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d.spans.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promSum sums every sample of the Prometheus text-format family name
// whose label set contains all of the given label="value" pairs.
func promSum(text, name string, labels ...string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
			}
		}
		if !match {
			continue
		}
		fields := strings.Fields(rest)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
