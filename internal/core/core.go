// Package core assembles μLayer's three runtime components — the NN
// partitioner, the latency predictor, and the NN executor (Figure 13) —
// into a single Runtime that plans and executes inference on a modeled
// SoC under any of the paper's execution mechanisms.
package core

import (
	"context"
	"fmt"

	"mulayer/internal/device"
	"mulayer/internal/exec"
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
	// processors errors at plan time. Part of the plan-cache key: degraded
	// and healthy plans never alias.
	Unhealthy device.Set
}

// Runtime is a μLayer runtime bound to one SoC model: it owns the fitted
// latency predictor and plans/executes networks on demand.
//
// # Concurrency
//
// A Runtime is immutable after NewRuntime: Plan, Run, and RunContext never
// mutate the Runtime, the SoC model, or the predictor, so one Runtime is
// safe for concurrent use by multiple goroutines. Each call builds its own
// plan, timeline, and (in numeric mode) activation tensors. The Model is
// read-only during a run, so concurrent runs may share a Model — provided
// no goroutine mutates it concurrently (calibration, which installs
// quantization grids and weight caches into the layers, must happen
// strictly before the model is shared). Note that concurrent Run calls
// model independent SoCs: each call gets its own simulated timeline, so
// two concurrent inferences do not contend for the modeled processors —
// serving-style contention is a scheduling concern layered above (see
// internal/server).
type Runtime struct {
	soc  *soc.SoC
	pred *profile.Predictor
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
	return &Runtime{soc: s, pred: profile.Build(s.Processors()...)}, nil
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

// Plan builds the execution plan a RunConfig implies for a model.
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
	plan, err := rt.Plan(m, rc)
	if err != nil {
		return nil, err
	}
	cfg, err := rt.execConfig(m, rc, ExecOpts{})
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	return exec.Run(m.Graph, plan, input, cfg)
}

// execConfig checks that m can run under rc and builds the executor
// configuration: numeric runs need a numeric model, calibrated when the
// pipeline stores QUInt8.
func (rt *Runtime) execConfig(m *models.Model, rc RunConfig, opts ExecOpts) (exec.Config, error) {
	o, err := rt.options(rc)
	if err != nil {
		return exec.Config{}, err
	}
	if rc.Numeric {
		if m.SpecOnly {
			return exec.Config{}, fmt.Errorf("core: model %s is spec-only; build it with Config.Numeric", m.Name)
		}
		if o.Pipe.Storage == tensor.QUInt8 && !m.Calibrated {
			return exec.Config{}, fmt.Errorf("core: model %s is not calibrated; run Calibrate first", m.Name)
		}
	}
	return exec.Config{
		SoC:            rt.soc,
		Pipe:           o.Pipe,
		Numeric:        rc.Numeric,
		InputParams:    m.InputParams,
		AsyncIssue:     !rc.DisableAsyncIssue,
		ZeroCopy:       !rc.DisableZeroCopy,
		FaultHook:      opts.Faults,
		TraceHook:      opts.Trace,
		WatchdogFactor: opts.WatchdogFactor,
	}, nil
}
