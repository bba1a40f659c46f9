package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"mulayer/internal/sim"
)

// outcome is one op as the load generator saw it.
type outcome struct {
	start time.Time
	lat   time.Duration
	ok    bool
	// rep is the simulated report behind the op (the executor's own, or
	// the cost-only reference run a served reply was checked against).
	rep      sim.Report
	simLatMS float64
	simEnMJ  float64
	// Served replies only.
	queueMS float64
	rows    int
}

// record adds one op's outcome to the phase.
func (p *phase) record(r outcome, late float64, limit time.Duration) {
	p.attempted++
	p.lat = append(p.lat, ms(r.lat))
	p.lateMS = append(p.lateMS, late)
	if !r.ok {
		p.failed++
		return
	}
	if limit == 0 || r.lat <= limit {
		p.good++
	}
	p.simLatMS = append(p.simLatMS, r.simLatMS)
	p.simEnMJ = append(p.simEnMJ, r.simEnMJ)
	p.reps = append(p.reps, r.rep)
	p.queueMS = append(p.queueMS, r.queueMS)
	p.rows = append(p.rows, float64(r.rows))
}

// closedLoop runs op back to back for o.seconds, and on until the phase
// holds o.minSamples samples (for at most 30 s more). After each op it
// runs the calibration kernel, and it records each op's process CPU time.
// A sample's lateness is the generator's own gap between two ops, not
// counting the calibration.
func closedLoop(o opts, op func(i int) outcome) *phase {
	p := &phase{closed: true}
	budget := time.Duration(o.seconds * float64(time.Second))
	runtime.GC()
	p.before = readUsage()
	start := time.Now()
	prevEnd := start
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= budget && (len(p.lat) >= o.minSamples || el >= budget+30*time.Second) {
			break
		}
		late := ms(time.Since(prevEnd))
		cpu := cpuTime()
		r := op(i)
		p.workCPU = append(p.workCPU, ms(cpuTime()-cpu))
		p.record(r, late, 0)
		p.calMS = append(p.calMS, ms(calibrate()))
		prevEnd = time.Now()
	}
	p.elapsed = time.Since(start)
	p.after = readUsage()
	return p
}

// openCalibEvery is how often an open loop runs the calibration kernel.
const openCalibEvery = 100 * time.Millisecond

// calibrateEvery runs the calibration kernel every openCalibEvery until
// stop is closed, appending its times to p.calMS and the process CPU time
// between them to p.workCPU, and closes done when it has stopped.
func calibrateEvery(p *phase, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(openCalibEvery)
	defer t.Stop()
	last := p.before.cpu
	for {
		select {
		case <-stop:
			p.workCPU = append(p.workCPU, ms(cpuTime()-last))
			return
		case <-t.C:
			p.workCPU = append(p.workCPU, ms(cpuTime()-last))
			p.calMS = append(p.calMS, ms(calibrate()))
			last = cpuTime()
		}
	}
}

// arrivalSlot is the stratum of openLoop's arrival schedule.
const arrivalSlot = 250 * time.Millisecond

// openLoop sends requests at seeded Poisson arrival times, each on its own
// goroutine, and times each from when it was due. The schedule is
// stratified: every arrivalSlot of the window gets exactly
// round(rate·slot) arrivals at uniform random times, which is a Poisson
// process conditioned on its count per slot. That keeps the burstiness
// queueing responds to and removes the slot-to-slot count variation that
// would otherwise dominate the run-to-run spread. Goodput counts
// successes within limit per second from the first due time to the last
// completion. Meanwhile a goroutine runs the calibration kernel every
// openCalibEvery.
func openLoop(o opts, rate float64, limit time.Duration, op func(i int) outcome) *phase {
	slots := int(math.Ceil(o.seconds * float64(time.Second) / float64(arrivalSlot)))
	perSlot := int(math.Round(rate * arrivalSlot.Seconds()))
	rng := rand.New(rand.NewPCG(o.seed, 0x70616365))
	due := make([]time.Duration, 0, slots*perSlot)
	for s := 0; s < slots; s++ {
		for i := 0; i < perSlot; i++ {
			due = append(due, time.Duration(s)*arrivalSlot+time.Duration(rng.Float64()*float64(arrivalSlot)))
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	n := len(due)

	p := &phase{}
	outs := make([]outcome, n)
	late := make([]float64, n)
	var wg sync.WaitGroup
	runtime.GC()
	p.before = readUsage()
	stopCal, calDone := make(chan struct{}), make(chan struct{})
	go calibrateEvery(p, stopCal, calDone)
	start := time.Now().Add(5 * time.Millisecond)
	for i, d := range due {
		at := start.Add(d)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		late[i] = ms(time.Since(at))
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			r := op(i)
			r.lat = time.Since(at)
			outs[i] = r
		}(i, at)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	close(stopCal)
	<-calDone
	p.after = readUsage()
	for i, r := range outs {
		p.record(r, late[i], limit)
	}
	return p
}

// result wraps metrics with the phase's op counts.
func (p *phase) result(m map[string]metric) result {
	return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}
}

// layerMetric is one per-layer metric the traced run reports.
type layerMetric struct{ name, unit string }

// layerList is every per-layer metric, in BENCHMARK.json order. A
// workload that does not exercise a layer reports 0 for it.
var layerList = []layerMetric{
	{"partition.plan_ms", "ms"},
	{"partition.split_layers", "count"},
	{"partition.mean_p", "share"},
	{"exec.kernel_launches", "count"},
	{"exec.self_ms", "ms"},
	{"device.sim_cpu_busy_ms", "sim-ms"},
	{"device.sim_gpu_busy_ms", "sim-ms"},
	{"nn.conv_cpu_ms", "ms"},
	{"nn.conv_gpu_ms", "ms"},
	{"nn.fc_cpu_ms", "ms"},
	{"nn.fc_gpu_ms", "ms"},
	{"nn.other_ms", "ms"},
	{"nn.alloc_kb", "kB"},
	{"gemm.im2col_ms", "ms"},
	{"gemm.q_ms", "ms"},
	{"gemm.f16_ms", "ms"},
	{"gemm.q_gops", "GOP/s"},
	{"gemm.f16_gflops", "GFLOP/s"},
	{"gemm.macs", "MAC"},
	{"gemm.bytes", "B-computed"},
	{"server.handler_ms", "ms"},
	{"server.decode_est_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.batch_rows_mean", "rows"},
	{"server.rejects", "count"},
	{"core.plan_cache_hit_ratio", "share"},
	{"frontend.self_ms", "ms"},
	{"frontend.hedge_ratio", "share"},
	{"frontend.affinity_share", "share"},
	{"frontend.retries", "count"},
	{"host.calib_ms", "ms"},
	{"loadgen.wall_p50_ms", "ms"},
	{"loadgen.late_ms_p90", "ms"},
	{"trace.overhead_frac", "share"},
}

// layerMetrics fills every per-layer metric from vals (missing = 0).
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerList))
	for _, l := range layerList {
		out[l.name] = metric{Value: vals[l.name], Unit: l.unit}
	}
	return out
}

// addReportMetrics adds the per-op means of the simulated reports behind
// a phase's successful ops.
func addReportMetrics(vals map[string]float64, p *phase) {
	var launches, cpu, gpu float64
	for _, r := range p.reps {
		launches += float64(r.KernelLaunches)
		cpu += ms(r.CPUBusy)
		gpu += ms(r.GPUBusy)
	}
	n := float64(len(p.reps))
	vals["exec.kernel_launches"] = ratio(launches, n)
	vals["device.sim_cpu_busy_ms"] = ratio(cpu, n)
	vals["device.sim_gpu_busy_ms"] = ratio(gpu, n)
}
