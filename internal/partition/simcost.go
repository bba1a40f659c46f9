package partition

import (
	"time"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// The branch-distribution decision does not go through the regression
// predictor: §5 says μLayer "collects the CPU- and the GPU-only execution
// latency" of each branch, i.e. it works from measured per-branch
// profiles. In this reproduction the device cost model plays the role of
// the measurement, so the helpers here mirror the executor's timing
// exactly (same Work construction, same overhead placement), keeping the
// planner's branch decisions consistent with what the simulation will
// report.

// Work builds the device work item for one processor's share of a layer
// under this pipeline — the single source of truth shared by the planner
// and the executor.
func (pl Pipeline) Work(p Proc, kind nn.OpKind, c nn.Cost, sideCh int) device.Work {
	ssz := pl.Storage.Size()
	wsz := pl.WeightBytes(p)
	return device.Work{
		Kind:            kind,
		MACs:            c.MACs,
		MovedBytes:      c.InElems*ssz + c.WElems*wsz + c.OutElems*ssz,
		WorkingSetBytes: c.InElems*ssz + c.WElems*wsz,
		Compute:         pl.ComputeType(p),
		Converted:       pl.Converted(p),
		SideChannels:    sideCh,
	}
}

// simKernel is the device-model kernel time for one share of a layer.
func (o Options) simKernel(p Proc, kind nn.OpKind, c nn.Cost, sideCh int) time.Duration {
	return o.proc(p).KernelTime(o.Pipe.Work(p, kind, c, sideCh))
}

// simAt is the device-model latency of one layer run at the channel
// counts ch, mirroring the executor's timing under asynchronous issue and
// zero-copy synchronization: the active processors run their shares
// concurrently, and a layer on more than one processor pays one merge
// synchronization.
func (o Options) simAt(kind nn.OpKind, c nn.Cost, ch [3]int) time.Duration {
	share := Shares(ch)
	n := ch[ProcCPU] + ch[ProcGPU] + ch[ProcNPU]
	var t time.Duration
	active := 0
	for i, k := range ch {
		if k == 0 {
			continue
		}
		active++
		side := Proc(i)
		sideCh := k
		if k == n {
			sideCh = 0 // a full kernel pays no split penalty
		}
		proc := o.proc(side)
		t = max(t, proc.LaunchOverhead+proc.KernelTime(o.Pipe.Work(side, kind, c.Scale(share[side]), sideCh)))
	}
	if active > 1 {
		t += o.coopSync(c)
	}
	return t
}

// simPlannedLayer evaluates, with the device model, the step the
// per-layer partitioner would actually emit for this layer (its ratio
// choice still comes from the regression predictor, as in §6).
func (o Options) simPlannedLayer(kind nn.OpKind, c nn.Cost, splitCh int) time.Duration {
	p, pn, _ := o.bestSplit(kind, c, splitCh)
	return o.simAt(kind, c, Channels(p, pn, splitCh))
}

// simCoopGroup is the device-model latency of executing a branch group
// with the per-layer plan the partitioner would otherwise emit (the
// layers serialize through their per-layer merges).
func (o Options) simCoopGroup(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) time.Duration {
	var total time.Duration
	for _, br := range bg.Branches {
		for _, id := range br {
			n := g.Node(id)
			ins := g.InputShapes(id, shapes)
			total += o.simPlannedLayer(n.Layer.Kind(), n.Layer.Cost(ins), n.Layer.SplitChannels(ins))
		}
	}
	return total
}

// simBranchAssign enumerates every branch→processor mapping (the paper's
// exhaustive search, §5) using device-model branch latencies and returns
// the argmin assignment and its makespan. Kernels within a branch are
// enqueued back-to-back, so the dispatch latency is paid once per branch;
// the fork tensor pays one entry synchronization if it is not already
// coherent on a side, and GPU-produced branch outputs pay one
// synchronization before the join — mirroring the executor exactly.
func (o Options) simBranchAssign(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) ([]Proc, time.Duration) {
	best, bestT, _ := o.simBranchSearch(g, bg, shapes)
	return best, bestT
}

// simBranchSearch runs the exhaustive mapping search and also returns the
// evaluation closure so tests can verify argmin-ness against the very same
// cost formula.
func (o Options) simBranchSearch(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) ([]Proc, time.Duration, func([]Proc) time.Duration) {
	b := len(bg.Branches)
	if b < 2 || b > 16 {
		return nil, 0, nil
	}
	lat := make([][2]time.Duration, b)
	outSync := make([]time.Duration, b)
	for i, br := range bg.Branches {
		for _, id := range br {
			n := g.Node(id)
			c := n.Layer.Cost(g.InputShapes(id, shapes))
			lat[i][ProcCPU] += o.simKernel(ProcCPU, n.Layer.Kind(), c, 0)
			lat[i][ProcGPU] += o.simKernel(ProcGPU, n.Layer.Kind(), c, 0)
		}
		lat[i][ProcCPU] += o.SoC.CPU.LaunchOverhead
		lat[i][ProcGPU] += o.SoC.GPU.LaunchOverhead
		last := br[len(br)-1]
		outSync[i] = o.SoC.SyncCost(int64(shapes[last].Elems()) * o.Pipe.Storage.Size())
	}

	// Where does the fork tensor live? Mirror the per-layer plan for the
	// fork node: a cooperative fork is coherent on both sides; a
	// single-processor fork makes the other side pay one entry sync.
	forkSync := o.SoC.SyncCost(int64(shapes[bg.Fork].Elems()) * o.Pipe.Storage.Size())
	var cpuEntry, gpuEntry time.Duration
	fork := g.Node(bg.Fork)
	if fork.Layer.Kind() != nn.OpInput {
		ins := g.InputShapes(bg.Fork, shapes)
		fp, _, _ := o.bestSplit(fork.Layer.Kind(), fork.Layer.Cost(ins), fork.Layer.SplitChannels(ins))
		switch {
		case fp >= 1: // fork on the CPU: GPU branches sync on entry
			gpuEntry = forkSync
		case fp <= 0: // fork on the GPU: CPU branches sync on entry
			cpuEntry = forkSync
		}
	}

	eval := func(assign []Proc) time.Duration {
		var cpuSum, gpuSum time.Duration
		var crossSync time.Duration
		for i, p := range assign {
			if p == ProcCPU {
				cpuSum += lat[i][ProcCPU]
			} else {
				gpuSum += lat[i][ProcGPU]
				if outSync[i] > crossSync {
					crossSync = outSync[i] // the join (on the CPU) maps each GPU output
				}
			}
		}
		if cpuSum > 0 {
			cpuSum += cpuEntry
		}
		if gpuSum > 0 {
			gpuSum += gpuEntry
		}
		t := cpuSum
		if gpuSum+crossSync > t {
			t = gpuSum + crossSync
		}
		return t
	}

	var best []Proc
	var bestT time.Duration
	assign := make([]Proc, b)
	for mask := 0; mask < 1<<b; mask++ {
		for i := 0; i < b; i++ {
			assign[i] = Proc(mask >> i & 1)
		}
		if t := eval(assign); best == nil || t < bestT {
			bestT = t
			best = append([]Proc(nil), assign...)
		}
	}
	return best, bestT, eval
}

// simBranchSearch3 is the three-way branch-assignment search (§8.3: "the
// branch distribution can benefit from having the NPU by being able to run
// more branches in parallel"). It mirrors simBranchSearch with a base-3
// enumeration; non-CPU-produced branch outputs pay one synchronization
// before the join. Unlike simBranchSearch it charges no fork-entry
// synchronization.
func (o Options) simBranchSearch3(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) ([]Proc, time.Duration) {
	b := len(bg.Branches)
	if b < 2 || b > 10 {
		return nil, 0
	}
	lat := make([][3]time.Duration, b)
	outSync := make([]time.Duration, b)
	for i, br := range bg.Branches {
		for _, id := range br {
			n := g.Node(id)
			c := n.Layer.Cost(g.InputShapes(id, shapes))
			for p := ProcCPU; p <= ProcNPU; p++ {
				lat[i][p] += o.simKernel(p, n.Layer.Kind(), c, 0)
			}
		}
		for p := ProcCPU; p <= ProcNPU; p++ {
			lat[i][p] += o.proc(p).LaunchOverhead
		}
		last := br[len(br)-1]
		outSync[i] = o.SoC.SyncCost(int64(shapes[last].Elems()) * o.Pipe.Storage.Size())
	}

	total := 1
	for i := 0; i < b; i++ {
		total *= 3
	}
	var best []Proc
	var bestT time.Duration
	assign := make([]Proc, b)
	for mask := 0; mask < total; mask++ {
		m := mask
		for i := 0; i < b; i++ {
			assign[i] = Proc(m % 3)
			m /= 3
		}
		var sums [3]time.Duration
		var cross [3]time.Duration
		for i, p := range assign {
			sums[p] += lat[i][p]
			if p != ProcCPU && outSync[i] > cross[p] {
				cross[p] = outSync[i]
			}
		}
		var t time.Duration
		for p := ProcCPU; p <= ProcNPU; p++ {
			if end := sums[p] + cross[p]; end > t {
				t = end
			}
		}
		if best == nil || t < bestT {
			bestT = t
			best = append([]Proc(nil), assign...)
		}
	}
	return best, bestT
}
