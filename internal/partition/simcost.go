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

// simBranchSearch enumerates every branch→processor mapping over the
// active processors (the paper's exhaustive search, §5; the §8.3 NPU
// "being able to run more branches in parallel" adds a third) using
// device-model branch latencies, and returns the argmin assignment, its
// makespan, and the evaluation closure so tests can verify argmin-ness
// against the very same cost formula. Kernels within a branch are
// enqueued back-to-back, so the dispatch latency is paid once per branch;
// the fork tensor pays one entry synchronization on every processor it
// is not already coherent on, and accelerator-produced branch outputs pay
// one synchronization before the join — mirroring the executor exactly.
func (o Options) simBranchSearch(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) ([]Proc, time.Duration, func([]Proc) time.Duration) {
	nproc := Proc(2) // the active processors are the first nproc Procs
	if o.npuEnabled() {
		nproc = 3
	}
	b := len(bg.Branches)
	if b < 2 {
		return nil, 0, nil
	}
	total := 1 // nproc^b mappings, searched only up to 2^16
	for range b {
		if total *= int(nproc); total > 1<<16 {
			return nil, 0, nil
		}
	}
	lat := make([][3]time.Duration, b)
	outSync := make([]time.Duration, b)
	for i, br := range bg.Branches {
		for _, id := range br {
			n := g.Node(id)
			c := n.Layer.Cost(g.InputShapes(id, shapes))
			for p := range nproc {
				lat[i][p] += o.simKernel(p, n.Layer.Kind(), c, 0)
			}
		}
		for p := range nproc {
			lat[i][p] += o.proc(p).LaunchOverhead
		}
		last := br[len(br)-1]
		outSync[i] = o.SoC.SyncCost(int64(shapes[last].Elems()) * o.Pipe.Storage.Size())
	}

	// Where does the fork tensor live? Mirror the per-layer plan for the
	// fork node: a cooperative fork is coherent everywhere; a
	// single-processor fork makes every other processor pay one entry
	// sync.
	var entry [3]time.Duration
	fork := g.Node(bg.Fork)
	if fork.Layer.Kind() != nn.OpInput {
		ins := g.InputShapes(bg.Fork, shapes)
		splitCh := fork.Layer.SplitChannels(ins)
		fp, fpn, _ := o.bestSplit(fork.Layer.Kind(), fork.Layer.Cost(ins), splitCh)
		ch := Channels(fp, fpn, splitCh)
		n := max(splitCh, 1)
		if ch[ProcCPU] == n || ch[ProcGPU] == n || ch[ProcNPU] == n {
			forkSync := o.SoC.SyncCost(int64(shapes[bg.Fork].Elems()) * o.Pipe.Storage.Size())
			for p := range nproc {
				if ch[p] == 0 {
					entry[p] = forkSync
				}
			}
		}
	}

	eval := func(assign []Proc) time.Duration {
		var sums, cross [3]time.Duration
		for i, p := range assign {
			sums[p] += lat[i][p]
			if p != ProcCPU {
				cross[p] = max(cross[p], outSync[i]) // the join (on the CPU) maps each accelerator output
			}
		}
		var t time.Duration
		for p := range nproc {
			if sums[p] > 0 {
				t = max(t, sums[p]+entry[p]+cross[p])
			}
		}
		return t
	}

	var best []Proc
	var bestT time.Duration
	assign := make([]Proc, b)
	for code := range total {
		for i, m := 0, code; i < b; i, m = i+1, m/int(nproc) {
			assign[i] = Proc(m % int(nproc))
		}
		if t := eval(assign); best == nil || t < bestT {
			bestT = t
			best = append([]Proc(nil), assign...)
		}
	}
	return best, bestT, eval
}
