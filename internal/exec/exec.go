// Package exec implements μLayer's NN executor (§6, Figure 13): it runs an
// execution plan over a network graph, performing the channel-wise
// workload distribution (each processor computes a disjoint output-channel
// range), processor-friendly quantization (QUInt8 kernels on the CPU, on-
// the-fly F16 kernels on the GPU), and branch distribution (whole branches
// per processor), while modeling the paper's implementation optimizations:
// asynchronous GPU command issue overlapped with CPU-side work and
// zero-copy CPU-GPU shared memory.
//
// The executor has two modes. In numeric mode it actually computes the
// network's tensors with the substrate kernels, so correctness tests can
// compare cooperative output against single-processor references bit for
// bit. In cost-only mode it walks the identical scheduling code without
// touching tensor data, which is how the full-size paper workloads (e.g.
// VGG-16 at 224²) are simulated quickly. Either way the simulated
// timeline, latency, and energy come from the device cost models.
package exec

import (
	"context"
	"fmt"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/quant"
	"mulayer/internal/sim"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// Config controls one execution.
type Config struct {
	SoC  *soc.SoC
	Pipe partition.Pipeline
	// Ctx, when non-nil, is checked between plan steps so a server-side
	// deadline or cancellation stops a queued or in-flight execution
	// promptly; Run then returns the context's error.
	Ctx context.Context
	// Numeric enables real tensor computation alongside the simulation.
	Numeric bool
	// InputParams is the quantization grid of the network input
	// (required for QUInt8 storage in numeric mode).
	InputParams quant.Params
	// AsyncIssue enables asynchronous GPU command issue (§6); disabling it
	// (ablation) blocks the CPU for the GPU's dispatch latency.
	AsyncIssue bool
	// ZeroCopy enables zero-copy shared CPU-GPU memory (§6); disabling it
	// (ablation) charges copy-based synchronization on processor
	// transitions.
	ZeroCopy bool
	// FaultHook, when non-nil, is consulted for every kernel the executor
	// schedules (internal/faults implements it): it may inflate the
	// kernel's duration (a stall) or return an error (a transient kernel
	// failure or a permanent processor death), which aborts the run at the
	// end of the current plan step with that error. The nil hook costs
	// nothing — the healthy serving path never pays for fault injection.
	FaultHook FaultHook
	// TraceHook, when non-nil, observes every kernel the executor books
	// on the simulated timeline (internal/server builds per-request
	// traces and predictor-drift telemetry from it). Like FaultHook, the
	// nil hook costs nothing: untraced requests never pay for tracing.
	TraceHook TraceHook
	// WatchdogFactor, when > 0, arms the kernel stall watchdog: every
	// kernel gets a budget of WatchdogFactor × its cost-model predicted
	// duration, and a kernel whose post-hook duration exceeds the budget
	// is booked only up to the budget and aborts the run (at the end of
	// the current plan step) with a *WatchdogError. The serving layer
	// treats that like a device failure — failover plus quarantine — so a
	// stalled kernel cannot hold its batch, or its batchmates, hostage.
	// Overruns can only originate from FaultHook (the simulator otherwise
	// books exactly the predicted duration), so the watchdog costs nothing
	// on the healthy path. Factors below 1 would trip on every kernel;
	// callers validate the range.
	WatchdogFactor float64
}

// WatchdogError reports a kernel that exceeded its stall-watchdog budget.
// It blames the device, not the request: the serving scheduler fails the
// batch over to another device and advances the stalled device's circuit
// breaker, exactly as for an injected fault or a recovered panic.
type WatchdogError struct {
	// Proc is the processor model name the kernel ran on.
	Proc string
	// ProcType is the processor class (CPU/GPU/NPU).
	ProcType device.Type
	// Kernel is the kernel label.
	Kernel string
	// Budget is the allowed duration (predicted × watchdog factor); Took
	// is the duration the kernel would have run without the watchdog.
	Budget time.Duration
	Took   time.Duration
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("exec: watchdog: kernel %s on %s ran %v, budget %v",
		e.Kernel, e.Proc, e.Took, e.Budget)
}

// FaultHook intercepts one scheduled kernel: it receives the processor,
// the kernel label, and the predicted duration, and returns the duration
// to charge plus an optional error that fails the run.
type FaultHook func(p *device.Processor, kernel string, d time.Duration) (time.Duration, error)

// TraceEvent describes one kernel the executor booked on the simulated
// timeline.
type TraceEvent struct {
	Proc  *device.Processor
	Side  partition.Proc
	Label string
	Kind  nn.OpKind
	Node  graph.NodeID
	// Start/End bound the booked timeline interval; they include the
	// kernel launch overhead and any injected stall.
	Start time.Duration
	End   time.Duration
	// KernelDur is the cost model's pure kernel time for this share,
	// launch overhead excluded. Predictor-drift telemetry compares it
	// against a predictor estimate of the same quantity.
	KernelDur time.Duration
	// P is the share of the layer's split channels this kernel computed
	// (1 for whole-layer execution).
	P float64
	// Rows is the fused row count carried by the kernel's panels.
	Rows int
	// Cost is the full batch-scaled layer cost (all shares together); a
	// predictor estimates this kernel as PredictSplit(Cost, P).
	Cost nn.Cost
	// DType and Converted identify the processor's compute pipeline,
	// matching the latency predictor's model key.
	DType     tensor.DataType
	Converted bool
}

// TraceHook observes one booked kernel. Implementations must be cheap
// and must not retain the event's Proc pointer beyond the call.
type TraceHook func(TraceEvent)

// DefaultConfig returns the μLayer production configuration for a SoC.
func DefaultConfig(s *soc.SoC) Config {
	return Config{SoC: s, Pipe: partition.ProcessorFriendly(), AsyncIssue: true, ZeroCopy: true}
}

// Result is the outcome of one simulated inference.
type Result struct {
	// Output is the final activation as float32 (dequantized if needed);
	// nil in cost-only mode.
	Output   *tensor.Tensor
	Report   sim.Report
	Timeline *sim.Timeline
}

// procMask tracks which processors hold a tensor coherently.
type procMask uint8

const (
	onCPU procMask = 1 << iota
	onGPU
	onNPU
)

func maskOf(p partition.Proc) procMask {
	switch p {
	case partition.ProcCPU:
		return onCPU
	case partition.ProcNPU:
		return onNPU
	}
	return onGPU
}

type runner struct {
	g      *graph.Graph
	cfg    Config
	shapes map[graph.NodeID]tensor.Shape
	tl     *sim.Timeline

	ready      map[graph.NodeID]time.Duration
	producedOn map[graph.NodeID]procMask

	// batch is the number of input rows fused into every kernel of this
	// run (≥1). Rows share each layer's weights: activations, compute, and
	// output traffic scale with the row count while the weight traffic and
	// the per-layer kernel launch are paid once — the row-panel
	// amortization server-side micro-batching exists to exploit.
	batch int
	// items carries the per-member state of a fused run: one entry per
	// batch member (a single Run has exactly one). Numeric value maps are
	// populated only in numeric mode; a member whose context dies mid-run
	// records its error here and stops receiving numeric work without
	// disturbing its batchmates.
	items []*fusedMember

	// seq is the completion time of the previous plan step: μLayer's
	// executor processes the plan sequentially, one step at a time (§5
	// notes layers are "executed in a serialized manner"; only the
	// branches inside one BranchStep run concurrently).
	seq time.Duration

	dramBytes int64
	launches  int

	// failure is the first error raised inside a plan step — an injected
	// kernel fault or a pipeline defect surfaced by a numeric forward. The
	// step loop aborts on it; keeping it on the runner lets the deeply
	// nested schedule/forward paths fail without threading errors through
	// every cost-model call.
	failure error

	// all is the mask of every processor present on the SoC; a tensor
	// with producedOn == all is coherent everywhere.
	all procMask
}

// schedule books one kernel on the timeline, first consulting the fault
// hook (when configured): a stall inflates the duration, a failure is
// recorded on the runner and aborts the run at the end of the step. The
// kernel is still booked on failure — the processor was occupied when it
// faulted, and the timeline stays internally consistent for the partial
// report. An armed watchdog bounds the post-hook duration to
// WatchdogFactor × the predicted duration: an over-budget kernel is
// booked only up to its budget (the watchdog killed it there) and fails
// the run with a *WatchdogError.
func (r *runner) schedule(p *device.Processor, label string, ready, dur time.Duration, energyPJ float64) (start, end time.Duration) {
	if r.cfg.FaultHook != nil && r.failure == nil {
		d, err := r.cfg.FaultHook(p, label, dur)
		budget := time.Duration(r.cfg.WatchdogFactor * float64(dur))
		switch {
		case err != nil:
			r.failure = err
		case r.cfg.WatchdogFactor > 0 && d > budget:
			r.failure = &WatchdogError{Proc: p.Name, ProcType: p.Type, Kernel: label, Budget: budget, Took: d}
			dur = budget
		default:
			dur = d
		}
	}
	return r.tl.Schedule(p.Name, label, ready, dur, energyPJ)
}

// traceKernel reports one booked kernel to the trace hook. Callers guard
// on r.cfg.TraceHook != nil so untraced runs pay nothing.
func (r *runner) traceKernel(p *device.Processor, side partition.Proc, label string, kind nn.OpKind,
	node graph.NodeID, start, end, kernelDur time.Duration, share float64, cost nn.Cost) {
	r.cfg.TraceHook(TraceEvent{
		Proc: p, Side: side, Label: label, Kind: kind, Node: node,
		Start: start, End: end, KernelDur: kernelDur,
		P: share, Rows: r.batch, Cost: cost,
		DType: r.cfg.Pipe.ComputeType(side), Converted: r.cfg.Pipe.Converted(side),
	})
}

// newRunner prepares per-inference state over a (possibly shared)
// timeline; arrival is the time the input becomes available.
func newRunner(g *graph.Graph, cfg Config, shapes map[graph.NodeID]tensor.Shape, tl *sim.Timeline, arrival time.Duration) *runner {
	r := &runner{
		g: g, cfg: cfg, shapes: shapes,
		tl:         tl,
		ready:      make(map[graph.NodeID]time.Duration),
		producedOn: make(map[graph.NodeID]procMask),
		batch:      1,
		seq:        arrival,
		all:        onCPU | onGPU,
	}
	if cfg.SoC.NPU != nil {
		r.all |= onNPU
	}
	// The input arrives in zero-copy shared memory: visible everywhere.
	in := g.Input()
	r.ready[in] = arrival
	r.producedOn[in] = r.all
	return r
}

// fusedMember is one batch member of a (possibly fused) run.
type fusedMember struct {
	// ctx, when non-nil, is this member's own deadline/cancellation: its
	// expiry drops the member from the batch without touching batchmates.
	ctx context.Context
	// err records the member's terminal context error once dropped.
	err error
	// vals holds the member's per-node activations in numeric mode.
	vals map[graph.NodeID]any
}

// checkMembers drops batch members whose context has died since the last
// plan step. Their rows stay in the fused panels (the work is already
// fused), but they receive no further numeric computation.
func (r *runner) checkMembers() {
	for _, it := range r.items {
		if it.err == nil && it.ctx != nil {
			if err := it.ctx.Err(); err != nil {
				it.err = err
			}
		}
	}
}

// eachLive runs fn once per still-live member's value map; a no-op in
// cost-only mode or once the run has failed. A pipeline defect reported
// by fn (e.g. a layer with no kernel for the storage type) fails the
// whole run, not one member — it is a plan problem, not a deadline.
func (r *runner) eachLive(fn func(vals map[graph.NodeID]any) error) {
	if !r.cfg.Numeric || r.failure != nil {
		return
	}
	for _, it := range r.items {
		if it.err == nil {
			if err := fn(it.vals); err != nil {
				r.failure = err
				return
			}
		}
	}
}

// scaleBatch widens a layer cost to the fused batch: activations, compute,
// and outputs grow with the row count; the weights are read once.
func (r *runner) scaleBatch(c nn.Cost) nn.Cost {
	if r.batch <= 1 {
		return c
	}
	b := int64(r.batch)
	return nn.Cost{MACs: c.MACs * b, InElems: c.InElems * b, WElems: c.WElems, OutElems: c.OutElems * b}
}

// execute walks the plan's steps in order, aborting between steps once the
// configured context is done.
func (r *runner) execute(plan *partition.Plan) error {
	for _, st := range plan.Steps {
		if r.cfg.Ctx != nil {
			if err := r.cfg.Ctx.Err(); err != nil {
				return err
			}
		}
		r.checkMembers()
		switch {
		case st.Layer != nil:
			r.runLayer(st.Layer)
		case st.Branch != nil:
			r.runBranch(st.Branch)
		}
		if r.failure != nil {
			return r.failure
		}
	}
	return nil
}

// Run executes plan over g with the given float32 input (nil in cost-only
// mode): RunFused of one single-row item.
func Run(g *graph.Graph, plan *partition.Plan, input *tensor.Tensor, cfg Config) (*Result, error) {
	res, err := RunFused(g, plan, []FusedItem{{Input: input}}, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Output: res.Items[0].Output, Report: res.Report, Timeline: res.Timeline}, nil
}

// checkStorage rejects a pipeline whose storage type the executor has no
// kernels for — a malformed plan/config is a returned error, not a crash.
func checkStorage(dt tensor.DataType) error {
	switch dt {
	case tensor.F32, tensor.F16, tensor.QUInt8:
		return nil
	}
	return fmt.Errorf("exec: unknown storage type %v", dt)
}

// convertInput lowers the float32 input into the pipeline's storage type.
func (r *runner) convertInput(in *tensor.Tensor) (any, error) {
	switch r.cfg.Pipe.Storage {
	case tensor.F32:
		return in.Clone(), nil
	case tensor.F16:
		return tensor.ToHalf(in), nil
	case tensor.QUInt8:
		return tensor.Quantize(in, r.cfg.InputParams), nil
	}
	return nil, checkStorage(r.cfg.Pipe.Storage)
}

// outputF32 widens the final activation back to float32.
func outputF32(vals map[graph.NodeID]any, id graph.NodeID) *tensor.Tensor {
	switch v := vals[id].(type) {
	case *tensor.Tensor:
		return v
	case *tensor.HTensor:
		return tensor.HalfToFloat(v)
	case *tensor.QTensor:
		return tensor.Dequantize(v)
	}
	return nil
}

// proc returns the device model for a processor.
func (r *runner) proc(p partition.Proc) *device.Processor {
	switch p {
	case partition.ProcCPU:
		return r.cfg.SoC.CPU
	case partition.ProcNPU:
		return r.cfg.SoC.NPU
	}
	return r.cfg.SoC.GPU
}

// inputsReady returns the time at which every input of node id is
// available on the processors in need, charging CPU-GPU synchronization
// when a tensor was produced elsewhere (zero-copy map/unmap, or a full
// copy in the ablation configuration).
func (r *runner) inputsReady(id graph.NodeID, need procMask) time.Duration {
	var ready time.Duration
	for _, in := range r.g.Node(id).Inputs {
		t := r.ready[in]
		if need&^r.producedOn[in] != 0 {
			t += r.syncCost(in)
			// After synchronization the tensor is coherent everywhere.
			r.producedOn[in] = r.all
			r.ready[in] = t
		}
		if t > ready {
			ready = t
		}
	}
	return ready
}

// syncCost is the latency of making one tensor visible across processors:
// zero-copy cache maintenance over the buffer, or a full copy in the
// ablation configuration. Fused batches carry one activation buffer per
// row, so the maintained bytes scale with the row count.
func (r *runner) syncCost(id graph.NodeID) time.Duration {
	bytes := int64(r.shapes[id].Elems()) * r.cfg.Pipe.Storage.Size() * int64(r.batch)
	if r.cfg.ZeroCopy {
		return r.cfg.SoC.SyncCost(bytes)
	}
	// The copy-based path still performs the cache maintenance and then
	// moves the buffer through DRAM on top.
	copyT := float64(bytes) / (r.cfg.SoC.CPU.MemBWGBs * 1e9)
	return r.cfg.SoC.CopySyncOverhead + r.cfg.SoC.SyncCost(bytes) + time.Duration(copyT*float64(time.Second))
}

// sideWork builds the device work item for one processor's share of a
// layer.
func (r *runner) sideWork(p partition.Proc, kind nn.OpKind, c nn.Cost, sideCh int) device.Work {
	ssz := r.cfg.Pipe.Storage.Size()
	wsz := r.cfg.Pipe.WeightBytes(p)
	// The resident set stays per-row under fusion: a row-paneled kernel
	// streams one row tile at a time past the cache-resident weight block,
	// so batching widens the panel without pushing the layer over the
	// cache knee.
	perRowIn := c.InElems / int64(r.batch)
	return device.Work{
		Kind:            kind,
		MACs:            c.MACs,
		MovedBytes:      c.InElems*ssz + c.WElems*wsz + c.OutElems*ssz,
		WorkingSetBytes: perRowIn*ssz + c.WElems*wsz,
		Compute:         r.cfg.Pipe.ComputeType(p),
		Converted:       r.cfg.Pipe.Converted(p),
		SideChannels:    sideCh,
		Rows:            r.batch,
	}
}

// runWhole schedules one whole layer, whose input shapes are ins, on one
// processor, starting no earlier than floor. chargeLaunch=false models
// back-to-back command enqueueing within a branch: consecutive GPU kernels
// of the same branch need no CPU round-trip, so only the branch's first
// kernel pays the dispatch latency.
func (r *runner) runWhole(id graph.NodeID, ins []tensor.Shape, p partition.Proc, chargeLaunch bool, floor time.Duration) {
	n := r.g.Node(id)
	cost := r.scaleBatch(n.Layer.Cost(ins))
	ready := r.inputsReady(id, maskOf(p))
	if floor > ready {
		ready = floor
	}
	proc := r.proc(p)
	w := r.sideWork(p, n.Layer.Kind(), cost, 0)
	kernelDur := proc.KernelTime(w)
	dur := kernelDur
	if chargeLaunch {
		dur += proc.LaunchOverhead
	}
	start, end := r.schedule(proc, n.Layer.Name(), ready, dur, proc.KernelEnergyPJ(w))
	if r.cfg.TraceHook != nil {
		r.traceKernel(proc, p, n.Layer.Name(), n.Layer.Kind(), id, start, end, kernelDur, 1, cost)
	}
	r.launches++
	r.dramBytes += w.MovedBytes
	r.ready[id] = end
	r.producedOn[id] = maskOf(p)
	r.eachLive(func(vals map[graph.NodeID]any) error {
		out, err := r.allocOut(id, vals)
		if err != nil {
			return err
		}
		if err := r.forward(id, out, 0, max(n.Layer.SplitChannels(ins), 1), p, vals); err != nil {
			return err
		}
		vals[id] = out
		return nil
	})
}

// sideLabel suffixes the kernel label of each processor's share of a
// split layer.
var sideLabel = [3]string{"[cpu]", "[gpu]", "[npu]"}

// runLayer executes one plan layer step. partition.Channels turns the
// step's shares into whole output-channel counts; a step on one processor
// runs the whole layer there, and otherwise each active processor computes
// its contiguous channel range (CPU, then GPU, then NPU) concurrently and
// the partial outputs merge through one synchronization (§3.2, §8.3).
func (r *runner) runLayer(st *partition.LayerStep) {
	id := st.Node
	n := r.g.Node(id)
	ins := r.g.InputShapes(id, r.shapes)
	ch := partition.Channels(st.P, st.PNPU, n.Layer.SplitChannels(ins))
	var need procMask
	var last partition.Proc
	for i, k := range ch {
		if k > 0 {
			last = partition.Proc(i)
			need |= maskOf(last)
		}
	}
	if need == maskOf(last) {
		r.runWhole(id, ins, last, true, r.seq)
		r.seq = r.ready[id]
		return
	}

	share := partition.Shares(ch)
	cost := r.scaleBatch(n.Layer.Cost(ins))
	kind := n.Layer.Kind()
	ready := max(r.inputsReady(id, need), r.seq)

	// Accelerator commands are enqueued asynchronously and their dispatch
	// latency runs on the accelerator (§6). Under blocking issue the CPU
	// stalls for every accelerator's dispatch before its own share, and
	// each accelerator starts its kernel once its dispatch completes.
	var stall time.Duration
	if !r.cfg.AsyncIssue {
		for _, p := range [...]partition.Proc{partition.ProcGPU, partition.ProcNPU} {
			if ch[p] > 0 {
				stall += r.proc(p).LaunchOverhead
			}
		}
	}
	var end time.Duration
	for i, k := range ch {
		if k == 0 {
			continue
		}
		p := partition.Proc(i)
		proc := r.proc(p)
		w := r.sideWork(p, kind, cost.Scale(share[p]), k)
		kernelDur := proc.KernelTime(w)
		start, dur := ready, proc.LaunchOverhead+kernelDur
		switch {
		case r.cfg.AsyncIssue:
		case p == partition.ProcCPU:
			dur += stall
		default:
			start, dur = ready+proc.LaunchOverhead, kernelDur
		}
		label := n.Layer.Name() + sideLabel[p]
		s, e := r.schedule(proc, label, start, dur, proc.KernelEnergyPJ(w))
		if r.cfg.TraceHook != nil {
			r.traceKernel(proc, p, label, kind, id, s, e, kernelDur, share[p], cost)
		}
		r.launches++
		r.dramBytes += w.MovedBytes
		end = max(end, e)
	}
	// Merge: with zero-copy memory the partial outputs already live in the
	// same buffer; the merge is the map/unmap barrier, whose cache
	// maintenance covers the shared input and output buffers.
	ssz := r.cfg.Pipe.Storage.Size()
	end += r.cfg.SoC.SyncCost((cost.InElems + cost.OutElems) * ssz)
	if !r.cfg.ZeroCopy {
		bytes := int64(r.shapes[id].Elems()) * ssz * int64(r.batch)
		end += r.cfg.SoC.CopySyncOverhead + time.Duration(float64(bytes)/(r.cfg.SoC.CPU.MemBWGBs*1e9)*float64(time.Second))
	}
	r.ready[id] = end
	r.producedOn[id] = r.all
	r.seq = end

	r.eachLive(func(vals map[graph.NodeID]any) error {
		out, err := r.allocOut(id, vals)
		if err != nil {
			return err
		}
		lo := 0
		for i, k := range ch {
			if k == 0 {
				continue
			}
			if err := r.forward(id, out, lo, lo+k, partition.Proc(i), vals); err != nil {
				return err
			}
			lo += k
		}
		vals[id] = out
		return nil
	})
}

// runBranch executes one branch-distributed fork-join group: every branch
// runs whole on its assigned processor, branches on the same processor
// serialize, and the downstream join synchronizes on all of them (§5).
func (r *runner) runBranch(st *partition.BranchStep) {
	floor := r.seq
	var groupEnd time.Duration
	for i, br := range st.Group.Branches {
		p := st.Assign[i]
		for j, id := range br {
			// A branch's kernels are enqueued back-to-back: only the first
			// pays the dispatch latency (§6's asynchronous command issue).
			r.runWhole(id, r.g.InputShapes(id, r.shapes), p, j == 0, floor)
		}
		if end := r.ready[br[len(br)-1]]; end > groupEnd {
			groupEnd = end
		}
	}
	r.seq = groupEnd
}

// allocOut allocates the node's output tensor in the storage type.
func (r *runner) allocOut(id graph.NodeID, vals map[graph.NodeID]any) (any, error) {
	shape := r.shapes[id]
	switch r.cfg.Pipe.Storage {
	case tensor.F32:
		return tensor.New(shape), nil
	case tensor.F16:
		return tensor.NewH(shape), nil
	case tensor.QUInt8:
		return tensor.NewQ(shape, r.outParams(id, vals)), nil
	}
	return nil, checkStorage(r.cfg.Pipe.Storage)
}

// outParams resolves the quantization grid of a node's output: the layer's
// calibrated output params, falling back to its first input's params for
// shape-preserving layers.
func (r *runner) outParams(id graph.NodeID, vals map[graph.NodeID]any) quant.Params {
	n := r.g.Node(id)
	if qi := n.Layer.Quant(); qi != nil && qi.Ready {
		return qi.Out
	}
	if len(n.Inputs) > 0 {
		if q, ok := vals[n.Inputs[0]].(*tensor.QTensor); ok {
			return q.Params
		}
	}
	return r.cfg.InputParams
}

// Forwarding interfaces implemented by the nn layers per pipeline.
type f32Forwarder interface {
	ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int)
}
type hForwarder interface {
	ForwardF16(ins []*tensor.HTensor, out *tensor.HTensor, c0, c1 int)
}
type qForwarder interface {
	ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int)
}
type qViaF16Forwarder interface {
	ForwardQViaF16(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int)
}

// forward dispatches the numeric kernel for channels [c0,c1) of node id on
// the pipeline of processor side, reading and writing one batch member's
// value map. A layer with no kernel for the pipeline is a malformed plan:
// a returned error (a 500 at the serving layer), not a crash.
func (r *runner) forward(id graph.NodeID, out any, c0, c1 int, side partition.Proc, vals map[graph.NodeID]any) error {
	n := r.g.Node(id)
	layer := n.Layer
	switch r.cfg.Pipe.Storage {
	case tensor.F32:
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, inID := range n.Inputs {
			ins[i] = vals[inID].(*tensor.Tensor)
		}
		l, ok := layer.(f32Forwarder)
		if !ok {
			return fmt.Errorf("exec: layer %s has no F32 pipeline", layer.Name())
		}
		l.ForwardF32(ins, out.(*tensor.Tensor), c0, c1)
	case tensor.F16:
		ins := make([]*tensor.HTensor, len(n.Inputs))
		for i, inID := range n.Inputs {
			ins[i] = vals[inID].(*tensor.HTensor)
		}
		l, ok := layer.(hForwarder)
		if !ok {
			return fmt.Errorf("exec: layer %s has no F16 pipeline", layer.Name())
		}
		l.ForwardF16(ins, out.(*tensor.HTensor), c0, c1)
	case tensor.QUInt8:
		ins := make([]*tensor.QTensor, len(n.Inputs))
		for i, inID := range n.Inputs {
			ins[i] = vals[inID].(*tensor.QTensor)
		}
		if r.cfg.Pipe.Converted(side) {
			if l, ok := layer.(qViaF16Forwarder); ok {
				l.ForwardQViaF16(ins, out.(*tensor.QTensor), c0, c1)
				return nil
			}
		}
		l, ok := layer.(qForwarder)
		if !ok {
			return fmt.Errorf("exec: layer %s has no QUInt8 pipeline", layer.Name())
		}
		l.ForwardQ(ins, out.(*tensor.QTensor), c0, c1)
	}
	return nil
}
