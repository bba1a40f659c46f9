package exec

import (
	"context"
	"fmt"
	"time"

	"mulayer/internal/graph"
	"mulayer/internal/partition"
	"mulayer/internal/sim"
	"mulayer/internal/tensor"
)

// FusedItem is one member of a fused micro-batch.
type FusedItem struct {
	// Ctx, when non-nil, is the member's own deadline/cancellation.
	// Its expiry drops the member from the batch — the member's result
	// carries the context error — without aborting its batchmates; the
	// member's rows stay in the already-fused panels.
	Ctx context.Context
	// Input is the member's input tensor (numeric mode only).
	Input *tensor.Tensor
	// Rows is the member's row multiplicity in the fused panels (0 and 1
	// mean one row). Rows > 1 is a cost-only construct — one client
	// submitting several inputs at once — and is rejected in numeric mode,
	// where each member carries exactly one input tensor.
	Rows int
}

// rows returns the member's effective row count.
func (it FusedItem) rows() int {
	if it.Rows < 1 {
		return 1
	}
	return it.Rows
}

// FusedItemResult is one member's slice of a fused run.
type FusedItemResult struct {
	// Err is the member's context error when it was dropped mid-run; nil
	// for members that completed.
	Err error
	// Output is the member's final activation (numeric mode, completed
	// members only).
	Output *tensor.Tensor
	// Latency is the member's completion time. Fused members finish with
	// the batch: every completed member observes the batch makespan.
	Latency time.Duration
}

// FusedResult is the outcome of one fused micro-batch execution.
type FusedResult struct {
	Items []FusedItemResult
	// Rows is the total row count fused into every kernel.
	Rows     int
	Report   sim.Report
	Timeline *sim.Timeline
}

// RunFused executes plan once over g with every item's rows fused into a
// single batched kernel per layer — the server-side micro-batching
// primitive. Unlike RunBatch (which simulates independent single-row
// inferences sharing a timeline), RunFused models one execution whose GEMM
// row panels carry the whole batch: each layer pays one kernel launch and
// one weight read regardless of the row count, which is where batching's
// throughput win comes from. Run is the one-item, one-row call.
//
// In numeric mode every item must carry an input; outputs are computed per
// member and are bit-identical to the member's own single-input Run under
// the same plan (the fused panels change the cost model, not the math).
// RunFused builds the plan's layout on every call; RunLayout reuses one.
func RunFused(g *graph.Graph, plan *partition.Plan, items []FusedItem, cfg Config) (*FusedResult, error) {
	lay, err := NewLayout(g, plan, cfg.Pipe.Storage)
	if err != nil {
		return nil, err
	}
	return RunLayout(lay, items, cfg)
}

// RunLayout is RunFused over a layout built by NewLayout for the
// pipeline's storage type. In numeric mode each live member computes into
// its own pooled arena, which goes back to the pool on every exit: when
// the member is dropped, when the run fails, and once its output has been
// copied out.
func RunLayout(lay *Layout, items []FusedItem, cfg Config) (*FusedResult, error) {
	if cfg.SoC == nil {
		return nil, fmt.Errorf("exec: SoC is required")
	}
	if cfg.Pipe.Storage != lay.storage {
		return nil, fmt.Errorf("exec: pipeline stores %v, layout was built for %v", cfg.Pipe.Storage, lay.storage)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("exec: fused batch needs at least one item")
	}
	g := lay.g
	want := lay.shapes[g.Input()]
	rows := 0
	for i, it := range items {
		rows += it.rows()
		if cfg.Numeric {
			if it.Rows > 1 {
				return nil, fmt.Errorf("exec: numeric item %d has %d rows; numeric members carry one input each", i, it.Rows)
			}
			if it.Input == nil {
				return nil, fmt.Errorf("exec: numeric item %d has no input", i)
			}
			if it.Input.Shape != want {
				return nil, fmt.Errorf("exec: item %d input shape %v, graph wants %v", i, it.Input.Shape, want)
			}
		}
	}

	r := newRunner(lay, cfg, sim.NewTimeline(lay.spans), 0)
	r.batch = rows
	r.items = make([]fusedMember, len(items))
	defer func() {
		for i := range r.items {
			r.items[i].release()
		}
	}()
	for i, it := range items {
		r.items[i].ctx = it.Ctx
		if cfg.Numeric {
			a := getArena(lay)
			a.load(g.Input(), it.Input, cfg.InputParams)
			r.items[i].ar = a
		}
	}
	if err := r.execute(lay.plan); err != nil {
		return nil, err
	}
	r.checkMembers()

	if err := r.tl.Validate(); err != nil {
		return nil, err
	}
	makespan := r.tl.Makespan()
	rep := sim.Report{
		Latency:        makespan,
		DynamicJ:       r.tl.DynamicEnergyPJ() * 1e-12,
		DRAMJ:          float64(r.dramBytes) * cfg.SoC.DRAMPicoJPerByte * 1e-12,
		StaticJ:        cfg.SoC.StaticPowerW * makespan.Seconds(),
		CPUBusy:        r.tl.BusyTime(cfg.SoC.CPU.Name),
		GPUBusy:        r.tl.BusyTime(cfg.SoC.GPU.Name),
		KernelLaunches: r.launches,
	}
	if cfg.SoC.NPU != nil {
		rep.NPUBusy = r.tl.BusyTime(cfg.SoC.NPU.Name)
	}
	res := &FusedResult{Rows: rows, Report: rep, Timeline: r.tl}
	end := r.ready[g.Output()]
	res.Items = make([]FusedItemResult, len(items))
	for i, m := range r.items {
		ir := FusedItemResult{Err: m.err}
		if m.err == nil {
			ir.Latency = end
			if m.ar != nil {
				ir.Output = m.ar.output(g.Output())
			}
		}
		res.Items[i] = ir
	}
	return res, nil
}
