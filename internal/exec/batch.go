package exec

import (
	"fmt"
	"time"

	"mulayer/internal/graph"
	"mulayer/internal/partition"
	"mulayer/internal/sim"
)

// BatchPolicy selects how a batch of independent inputs is distributed —
// the NN-execution taxonomy of §2.2 / Figure 4.
type BatchPolicy int

// The multi-input execution policies.
const (
	// BatchSingleCPU processes every input sequentially on the CPU.
	BatchSingleCPU BatchPolicy = iota
	// BatchSingleGPU processes every input sequentially on the GPU.
	BatchSingleGPU
	// BatchNetworkToProcessor alternates whole inputs between the CPU and
	// the GPU (Figure 4a, e.g. MCDNN): throughput improves, but each
	// input's latency is still bounded by a single processor.
	BatchNetworkToProcessor
	// BatchMuLayer runs every input with the cooperative μLayer plan
	// (Figure 4c): both throughput and single-input latency improve.
	BatchMuLayer
)

// String implements fmt.Stringer.
func (p BatchPolicy) String() string {
	switch p {
	case BatchSingleCPU:
		return "single-cpu"
	case BatchSingleGPU:
		return "single-gpu"
	case BatchNetworkToProcessor:
		return "network-to-processor"
	case BatchMuLayer:
		return "mulayer"
	}
	return fmt.Sprintf("BatchPolicy(%d)", int(p))
}

// BatchPlans carries the per-policy execution plans RunBatch dispatches
// over (build them with the partition presets).
type BatchPlans struct {
	CPU  *partition.Plan // whole network on the CPU
	GPU  *partition.Plan // whole network on the GPU
	Coop *partition.Plan // the μLayer plan
	// CoopPipe is the pipeline of the cooperative plan (the single-
	// processor plans use CPUPipe/GPUPipe).
	CPUPipe, GPUPipe, CoopPipe partition.Pipeline
}

// BatchResult aggregates one batch simulation.
type BatchResult struct {
	// Makespan is the time to drain the whole batch.
	Makespan time.Duration
	// ThroughputIPS is inputs per second over the makespan.
	ThroughputIPS float64
	// MeanLatency and MaxLatency are per-input completion times measured
	// from the batch arrival at t=0 (queueing included, §2.2's
	// single-input-latency argument).
	MeanLatency time.Duration
	MaxLatency  time.Duration
	Timeline    *sim.Timeline
}

// RunBatch simulates n independent inputs, all arriving at t=0, under the
// given policy. Cost-only: the numeric pipelines are exercised by Run.
func RunBatch(g *graph.Graph, policy BatchPolicy, plans BatchPlans, n int, cfg Config) (*BatchResult, error) {
	if cfg.SoC == nil {
		return nil, fmt.Errorf("exec: SoC is required")
	}
	if n <= 0 {
		return nil, fmt.Errorf("exec: batch size must be positive")
	}
	if cfg.Numeric {
		return nil, fmt.Errorf("exec: RunBatch is cost-only; use Run for numeric inference")
	}
	// One layout per distinct plan: its shapes time every input's run.
	layouts := make(map[*partition.Plan]*Layout, 2)

	pick := func(i int) (*partition.Plan, partition.Pipeline, error) {
		switch policy {
		case BatchSingleCPU:
			return plans.CPU, plans.CPUPipe, nil
		case BatchSingleGPU:
			return plans.GPU, plans.GPUPipe, nil
		case BatchNetworkToProcessor:
			if i%2 == 0 {
				return plans.CPU, plans.CPUPipe, nil
			}
			return plans.GPU, plans.GPUPipe, nil
		case BatchMuLayer:
			return plans.Coop, plans.CoopPipe, nil
		}
		return nil, partition.Pipeline{}, fmt.Errorf("exec: unknown batch policy %d", int(policy))
	}

	tl := sim.NewTimeline(0)
	res := &BatchResult{Timeline: tl}
	var totalLatency time.Duration
	for i := 0; i < n; i++ {
		plan, pipe, err := pick(i)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			return nil, fmt.Errorf("exec: policy %v needs a plan that was not provided", policy)
		}
		lay, ok := layouts[plan]
		if !ok {
			if lay, err = NewLayout(g, plan, pipe.Storage); err != nil {
				return nil, err
			}
			layouts[plan] = lay
		}
		c := cfg
		c.Pipe = pipe
		// All inputs are available at t=0; the shared timeline makes
		// same-processor inputs queue and different-processor inputs
		// overlap, which is exactly Figure 4's distinction.
		r := newRunner(lay, c, tl, 0)
		if err := r.execute(plan); err != nil {
			return nil, err
		}
		end := r.ready[g.Output()]
		totalLatency += end
		if end > res.MaxLatency {
			res.MaxLatency = end
		}
	}
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	res.Makespan = tl.Makespan()
	res.MeanLatency = totalLatency / time.Duration(n)
	res.ThroughputIPS = float64(n) / res.Makespan.Seconds()
	return res, nil
}
