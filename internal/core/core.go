// Package core assembles μLayer's three runtime components — the NN
// partitioner, the latency predictor, and the NN executor (Figure 13) —
// into a single Runtime that plans and executes inference on a modeled
// SoC under any of the paper's execution mechanisms.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/exec"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// Mechanism selects how a network is mapped onto the SoC's processors.
type Mechanism int

// The execution mechanisms of the evaluation (§7.2).
const (
	// MechCPUOnly runs the whole network on the CPU.
	MechCPUOnly Mechanism = iota
	// MechGPUOnly runs the whole network on the GPU.
	MechGPUOnly
	// MechLayerToProcessor is the state-of-the-art baseline: each layer on
	// the faster processor, QUInt8 everywhere.
	MechLayerToProcessor
	// MechChannelDist adds the channel-wise workload distribution (§3.2),
	// both processors still computing QUInt8.
	MechChannelDist
	// MechChannelDistProcQuant adds processor-friendly quantization (§4):
	// CPU QUInt8, GPU F16 with on-the-fly conversion.
	MechChannelDistProcQuant
	// MechMuLayer is the complete system, adding branch distribution (§5).
	MechMuLayer
	// MechNPUOnly runs the whole network on the NPU (requires an
	// NPU-equipped SoC, §8.3).
	MechNPUOnly
	// MechMuLayerNPU is μLayer with three-way CPU+GPU+NPU cooperation
	// (requires an NPU-equipped SoC, §8.3).
	MechMuLayerNPU
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case MechCPUOnly:
		return "cpu-only"
	case MechGPUOnly:
		return "gpu-only"
	case MechLayerToProcessor:
		return "layer-to-processor"
	case MechChannelDist:
		return "channel-dist"
	case MechChannelDistProcQuant:
		return "channel-dist+proc-quant"
	case MechMuLayer:
		return "mulayer"
	case MechNPUOnly:
		return "npu-only"
	case MechMuLayerNPU:
		return "mulayer+npu"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// Mechanisms maps each mechanism's command-line and API name to the
// mechanism. The NPU mechanisms fail per device on a class without an
// NPU.
var Mechanisms = map[string]Mechanism{
	"cpu":         MechCPUOnly,
	"gpu":         MechGPUOnly,
	"l2p":         MechLayerToProcessor,
	"chdist":      MechChannelDist,
	"pquant":      MechChannelDistProcQuant,
	"mulayer":     MechMuLayer,
	"npu":         MechNPUOnly,
	"mulayer+npu": MechMuLayerNPU,
}

// RunConfig configures one inference.
type RunConfig struct {
	// Mechanism picks the execution mechanism (default MechMuLayer).
	Mechanism Mechanism
	// DType is the uniform data type of the single-processor mechanisms
	// (the zero value is tensor.F32, so an unset DType plans the F32
	// pipeline); ignored by the cooperative ones.
	DType tensor.DataType
	// Numeric runs the real kernels and produces an output tensor; the
	// default cost-only mode simulates timing and energy only.
	Numeric bool
	// DisableAsyncIssue and DisableZeroCopy turn off §6's implementation
	// optimizations (ablations).
	DisableAsyncIssue bool
	DisableZeroCopy   bool
	// Unhealthy names processors the plan must avoid — the degraded-mode
	// lever of the fault-tolerance layer. A cooperative mechanism with one
	// side unhealthy degenerates to single-processor plans (p=0 or p=1,
	// no branch distribution); a mechanism that cannot run on the surviving
	// processors errors at plan time. Part of the plan memo's key: degraded
	// and healthy plans never alias.
	Unhealthy device.Set
}

// Runtime is a μLayer runtime bound to one SoC model: it owns the fitted
// latency predictor and plans/executes networks on demand.
//
// # Concurrency
//
// One Runtime is safe for concurrent use by multiple goroutines. Its SoC
// model and predictor are immutable after NewRuntime. Its one mutable part
// is the memo, guarded by one mutex: per (model graph, run config) it holds
// the plan, its execution layout and the predicted makespan of each fused
// batch size asked of Estimate. A key's plan and layout are built on its
// first request, under the lock, and are read-only from then on; Run,
// RunContext, RunBatch, PlanCached and Estimate all read them there. An
// Estimate for a new row count simulates outside the lock, so it never
// holds up another lookup, and stores the deterministic result under it.
// Plan builds a fresh plan on every call. Each run gets its own timeline
// and, in numeric mode, one pooled activation arena per batch member,
// returned to the pool when the run ends. The Model is read-only during a
// run, so concurrent runs may share a Model — provided no goroutine
// mutates it concurrently (calibration, which installs quantization grids
// and weight caches into the layers, must happen strictly before the model
// is shared). Note that concurrent Run calls model independent SoCs: each
// call gets its own simulated timeline, so two concurrent inferences do
// not contend for the modeled processors — serving-style contention is a
// scheduling concern layered above (see internal/server).
type Runtime struct {
	soc  *soc.SoC
	pred *profile.Predictor

	mu     sync.Mutex
	memo   map[memoKey]*prepared
	hits   int64 // counted lookups (PlanCached, Estimate) answered by the memo
	misses int64 // and those that had to plan or simulate
}

// memoKey identifies one memoized plan: the model's graph, by pointer so
// that two same-named models never alias, and the run config stripped of
// the fields that do not influence planning (cacheRC). RunConfig.Unhealthy
// is part of it: a degraded device's p=0/p=1 plans never alias the healthy
// cooperative ones, and a recovery finds the healthy entries still there.
type memoKey struct {
	g  *graph.Graph
	rc RunConfig
}

// prepared is one memoized plan with the pipeline it was planned for, its
// execution layout and, per fused row count, the predicted makespan of
// the plan (guarded by Runtime.mu).
type prepared struct {
	plan      *partition.Plan
	pipe      partition.Pipeline
	layout    *exec.Layout
	makespans map[int]time.Duration
}

// prepare returns the memoized plan and layout of (m, rc), building them
// on the key's first request; hit reports whether they were memoized. It
// is the run path's lookup and counts nothing.
func (rt *Runtime) prepare(m *models.Model, rc RunConfig) (p *prepared, hit bool, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.prepareLocked(m, rc)
}

// prepareLocked is prepare with rt.mu held.
func (rt *Runtime) prepareLocked(m *models.Model, rc RunConfig) (p *prepared, hit bool, err error) {
	key := memoKey{g: m.Graph, rc: cacheRC(rc)}
	if p, ok := rt.memo[key]; ok {
		return p, true, nil
	}
	o, err := rt.options(rc)
	if err != nil {
		return nil, false, err
	}
	plan, err := partition.Build(m.Graph, o)
	if err != nil {
		return nil, false, err
	}
	lay, err := exec.NewLayout(m.Graph, plan, o.Pipe.Storage)
	if err != nil {
		return nil, false, err
	}
	p = &prepared{plan: plan, pipe: o.Pipe, layout: lay, makespans: make(map[int]time.Duration)}
	rt.memo[key] = p
	return p, false, nil
}

// count records one counted lookup as a hit or a miss. Caller holds rt.mu.
func (rt *Runtime) count(hit bool) {
	if hit {
		rt.hits++
	} else {
		rt.misses++
	}
}

// PlanCached returns the memoized plan of (m, rc), running the partitioner
// on the key's first request; hit reports whether the plan was already
// memoized. The serving layer records hit as a plan-lookup span attribute.
// Planner errors are returned, never memoized.
func (rt *Runtime) PlanCached(m *models.Model, rc RunConfig) (plan *partition.Plan, hit bool, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, hit, err := rt.prepareLocked(m, rc)
	if err != nil {
		return nil, false, err
	}
	rt.count(hit)
	return p.plan, hit, nil
}

// Estimate returns the predicted makespan of a fused batch of rows rows
// under (m, rc) — the number the serving scheduler uses for admission
// control, Retry-After and device pacing. The first request for a (key,
// rows) pair simulates the memoized plan cost-only; later requests hit the
// memo. Its plan lookup and its makespan lookup each count a hit or miss.
func (rt *Runtime) Estimate(m *models.Model, rc RunConfig, rows int) (time.Duration, error) {
	rows = max(rows, 1)
	rt.mu.Lock()
	p, hit, err := rt.prepareLocked(m, rc)
	if err != nil {
		rt.mu.Unlock()
		return 0, err
	}
	rt.count(hit)
	d, ok := p.makespans[rows]
	rt.count(ok)
	rt.mu.Unlock()
	if ok {
		return d, nil
	}
	// A new row count simulates outside the lock. Two concurrent misses
	// both simulate; the cost-only run is deterministic, so they store
	// one value.
	res, err := rt.runLayout(m, p.pipe, p.layout, []exec.FusedItem{{Rows: rows}}, cacheRC(rc), ExecOpts{})
	if err != nil {
		return 0, err
	}
	rt.mu.Lock()
	p.makespans[rows] = res.Report.Latency
	rt.mu.Unlock()
	return res.Report.Latency, nil
}

// MemoStats is a snapshot of a runtime memo's effectiveness counters.
type MemoStats struct {
	// Plans is the number of distinct (model, config) plans held.
	Plans int `json:"plans"`
	// Makespans is the number of memoized (plan, rows) cost estimates.
	Makespans int   `json:"makespans"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
}

// MemoStats returns a snapshot of the memo's counters.
func (rt *Runtime) MemoStats() MemoStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := MemoStats{Plans: len(rt.memo), Hits: rt.hits, Misses: rt.misses}
	for _, p := range rt.memo {
		s.Makespans += len(p.makespans)
	}
	return s
}

// cacheRC strips the per-request fields that do not influence planning or
// cost so equivalent requests share one entry.
func cacheRC(rc RunConfig) RunConfig {
	rc.Numeric = false
	return rc
}

// NewRuntime profiles the SoC's processors and fits the latency predictor
// (the offline step of §6).
func NewRuntime(s *soc.SoC) (*Runtime, error) {
	if s == nil {
		return nil, fmt.Errorf("core: nil SoC")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Runtime{soc: s, pred: profile.Build(s.Processors()...), memo: make(map[memoKey]*prepared)}, nil
}

// SoC returns the runtime's SoC model.
func (rt *Runtime) SoC() *soc.SoC { return rt.soc }

// Predictor returns the fitted latency predictor.
func (rt *Runtime) Predictor() *profile.Predictor { return rt.pred }

// options maps a RunConfig to planner options, applying the degraded-mode
// restriction when rc names unhealthy processors.
func (rt *Runtime) options(rc RunConfig) (partition.Options, error) {
	dt := rc.DType
	var o partition.Options
	switch rc.Mechanism {
	case MechCPUOnly:
		o = partition.SingleProcessor(rt.soc, rt.pred, device.CPU, dt)
	case MechGPUOnly:
		o = partition.SingleProcessor(rt.soc, rt.pred, device.GPU, dt)
	case MechLayerToProcessor:
		o = partition.LayerToProcessor(rt.soc, rt.pred)
	case MechChannelDist:
		o = partition.ChannelDistOnly(rt.soc, rt.pred)
	case MechChannelDistProcQuant:
		o = partition.ChannelDistProcQuant(rt.soc, rt.pred)
	case MechMuLayer:
		o = partition.MuLayer(rt.soc, rt.pred)
	case MechNPUOnly:
		o = partition.NPUOnly(rt.soc, rt.pred)
	case MechMuLayerNPU:
		o = partition.MuLayerNPU(rt.soc, rt.pred)
	default:
		return partition.Options{}, fmt.Errorf("core: unknown mechanism %d", int(rc.Mechanism))
	}
	return degrade(o, rc)
}

// Plan builds the execution plan a RunConfig implies for a model. Unlike
// Run it does not consult the plan memo: every call runs the partitioner.
func (rt *Runtime) Plan(m *models.Model, rc RunConfig) (*partition.Plan, error) {
	o, err := rt.options(rc)
	if err != nil {
		return nil, err
	}
	return partition.Build(m.Graph, o)
}

// Run plans and executes one inference. In numeric mode the model must be
// numeric and, for quantized pipelines, calibrated; input may be nil in
// cost-only mode.
func (rt *Runtime) Run(m *models.Model, input *tensor.Tensor, rc RunConfig) (*exec.Result, error) {
	return rt.RunContext(context.Background(), m, input, rc)
}

// RunContext is Run under a context: the executor checks ctx between plan
// steps, so canceling it (or its deadline expiring) aborts the inference
// promptly and returns the context's error. This is the entry point the
// serving scheduler uses to enforce per-request deadlines.
func (rt *Runtime) RunContext(ctx context.Context, m *models.Model, input *tensor.Tensor, rc RunConfig) (*exec.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, _, err := rt.prepare(m, rc)
	if err != nil {
		return nil, err
	}
	cfg, err := rt.execConfig(m, rc, p.pipe, ExecOpts{})
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	res, err := exec.RunLayout(p.layout, []exec.FusedItem{{Input: input}}, cfg)
	if err != nil {
		return nil, err
	}
	return &exec.Result{Output: res.Items[0].Output, Report: res.Report, Timeline: res.Timeline}, nil
}

// execConfig checks that m can run under rc on pipeline pipe and builds
// the executor configuration: numeric runs need a numeric model,
// calibrated when the pipeline stores QUInt8.
func (rt *Runtime) execConfig(m *models.Model, rc RunConfig, pipe partition.Pipeline, opts ExecOpts) (exec.Config, error) {
	if rc.Numeric {
		if m.SpecOnly {
			return exec.Config{}, fmt.Errorf("core: model %s is spec-only; build it with Config.Numeric", m.Name)
		}
		if pipe.Storage == tensor.QUInt8 && !m.Calibrated {
			return exec.Config{}, fmt.Errorf("core: model %s is not calibrated; run Calibrate first", m.Name)
		}
	}
	return exec.Config{
		SoC:            rt.soc,
		Pipe:           pipe,
		Numeric:        rc.Numeric,
		InputParams:    m.InputParams,
		AsyncIssue:     !rc.DisableAsyncIssue,
		ZeroCopy:       !rc.DisableZeroCopy,
		FaultHook:      opts.Faults,
		TraceHook:      opts.Trace,
		WatchdogFactor: opts.WatchdogFactor,
	}, nil
}
