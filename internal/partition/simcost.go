package partition

import (
	"time"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// This file is the device-time model that the planner scores and the
// executor charges: one builder of a kernel's device work, one per-
// processor booking of a layer step, one merge barrier and one transition
// synchronization. The executor books exactly these figures on its
// timeline, so the planner's device-model latencies are the latencies the
// simulation reports.
//
// The branch-distribution decision uses this model rather than the
// regression predictor: §5 says μLayer "collects the CPU- and the
// GPU-only execution latency" of each branch, i.e. it works from measured
// per-branch profiles, and in this reproduction the device cost model
// plays the role of the measurement.

// Work builds the device work item for one processor's share of a layer
// of cost c, already scaled to the share and to the rows (≥ 1) fused
// rows: sideCh is the share's output-channel count, 0 for a full kernel.
func (pl Pipeline) Work(p device.Type, kind nn.OpKind, c nn.Cost, sideCh, rows int) device.Work {
	ssz := pl.Storage.Size()
	wsz := pl.WeightBytes(p)
	return device.Work{
		Kind:       kind,
		MACs:       c.MACs,
		MovedBytes: c.InElems*ssz + c.WElems*wsz + c.OutElems*ssz,
		// The resident set stays per-row under fusion: a row-paneled
		// kernel streams one row tile at a time past the cache-resident
		// weight block, so batching widens the panel without pushing the
		// layer over the cache knee.
		WorkingSetBytes: c.InElems/int64(rows)*ssz + c.WElems*wsz,
		Compute:         pl.ComputeType(p),
		Converted:       pl.Converted(p),
		SideChannels:    sideCh,
		Rows:            rows,
	}
}

// Slot is one processor's booking in a layer step, timed from the moment
// the step's inputs are ready.
type Slot struct {
	Work device.Work
	// Kernel is the kernel's device time, dispatch excluded.
	Kernel time.Duration
	// Start is the booking's offset from the inputs being ready; Dur is
	// its length, the kernel plus any dispatch charged to it.
	Start, Dur time.Duration
}

// StepSlots returns each processor's booking for a layer of cost c,
// already scaled to the rows fused rows, run at the channel counts ch;
// an idle processor's slot is zero. A processor holding every channel
// runs the full kernel; otherwise each active processor computes its
// channel share at the partial-kernel rate. Under asynchronous issue (§6)
// every processor pays its own dispatch concurrently. Under blocking
// issue (async false, the ablation) the CPU of a split step stalls for
// every accelerator's dispatch before its share, and each accelerator
// starts its kernel once its dispatch completes.
func (pl Pipeline) StepSlots(s *soc.SoC, kind nn.OpKind, c nn.Cost, ch [3]int, rows int, async bool) (sl [3]Slot) {
	n := ch[device.CPU] + ch[device.GPU] + ch[device.NPU]
	whole := ch[device.CPU] == n || ch[device.GPU] == n || ch[device.NPU] == n
	share := Shares(ch)
	var stall time.Duration
	if !async && !whole {
		for _, p := range [...]device.Type{device.GPU, device.NPU} {
			if ch[p] > 0 {
				stall += s.Proc(p).LaunchOverhead
			}
		}
	}
	for i, k := range ch {
		if k == 0 {
			continue
		}
		p := device.Type(i)
		proc := s.Proc(p)
		pc, sideCh := c, 0
		if !whole {
			pc, sideCh = c.Scale(share[p]), k
		}
		w := pl.Work(p, kind, pc, sideCh, rows)
		kt := proc.KernelTime(w)
		sl[p] = Slot{Work: w, Kernel: kt, Dur: proc.LaunchOverhead + kt}
		switch {
		case async || whole:
		case p == device.CPU:
			sl[p].Dur += stall
		default:
			sl[p].Start, sl[p].Dur = proc.LaunchOverhead, kt
		}
	}
	return sl
}

// MergeSync returns the merge barrier of a layer step split over more
// than one processor, for c the layer's cost scaled to the fused rows:
// with zero-copy memory the partial outputs already share one buffer, and
// the barrier is the map/unmap whose cache maintenance covers the shared
// input and output buffers; without it (the ablation) the merged output
// also copies through DRAM.
func (pl Pipeline) MergeSync(s *soc.SoC, c nn.Cost, zeroCopy bool) time.Duration {
	ssz := pl.Storage.Size()
	return s.SyncCost((c.InElems+c.OutElems)*ssz, c.OutElems*ssz, zeroCopy)
}

// TensorSync returns the latency of making one activation of elems
// elements per row, over rows fused rows, coherent on processors that did
// not produce it: cache maintenance over its buffer, or without zero-copy
// memory (the ablation) a copy through DRAM on top.
func (pl Pipeline) TensorSync(s *soc.SoC, elems int64, rows int, zeroCopy bool) time.Duration {
	b := elems * pl.Storage.Size() * int64(rows)
	return s.SyncCost(b, b, zeroCopy)
}

// StepTime is the device-model latency of one layer step run at the
// channel counts ch, from its inputs being ready to its merged output,
// for one row under asynchronous issue and zero-copy memory: the active
// processors run their slots concurrently, and a step on more than one
// processor then pays the merge barrier.
func (pl Pipeline) StepTime(s *soc.SoC, kind nn.OpKind, c nn.Cost, ch [3]int) time.Duration {
	sl := pl.StepSlots(s, kind, c, ch, 1, true)
	var t time.Duration
	active := 0
	for p, k := range ch {
		if k > 0 {
			active++
			t = max(t, sl[p].Start+sl[p].Dur)
		}
	}
	if active > 1 {
		t += pl.MergeSync(s, c, true)
	}
	return t
}

// simPlannedLayer evaluates, with the device model, the step the
// per-layer partitioner would actually emit for this layer (its ratio
// choice still comes from the regression predictor, as in §6).
func (o Options) simPlannedLayer(kind nn.OpKind, c nn.Cost, splitCh int) time.Duration {
	p, pn, _ := o.bestSplit(kind, c, splitCh)
	return o.Pipe.StepTime(o.SoC, kind, c, Channels(p, pn, splitCh))
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
// one synchronization before the join.
func (o Options) simBranchSearch(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) ([]device.Type, time.Duration, func([]device.Type) time.Duration) {
	nproc := device.Type(2) // the active processors are the first nproc classes
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
				lat[i][p] += o.SoC.Proc(p).KernelTime(o.Pipe.Work(p, n.Layer.Kind(), c, 0, 1))
			}
		}
		for p := range nproc {
			lat[i][p] += o.SoC.Proc(p).LaunchOverhead
		}
		last := br[len(br)-1]
		outSync[i] = o.Pipe.TensorSync(o.SoC, int64(shapes[last].Elems()), 1, true)
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
		if ch[device.CPU] == n || ch[device.GPU] == n || ch[device.NPU] == n {
			forkSync := o.Pipe.TensorSync(o.SoC, int64(shapes[bg.Fork].Elems()), 1, true)
			for p := range nproc {
				if ch[p] == 0 {
					entry[p] = forkSync
				}
			}
		}
	}

	eval := func(assign []device.Type) time.Duration {
		var sums, cross [3]time.Duration
		for i, p := range assign {
			sums[p] += lat[i][p]
			if p != device.CPU {
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

	var best []device.Type
	var bestT time.Duration
	assign := make([]device.Type, b)
	for code := range total {
		for i, m := 0, code; i < b; i, m = i+1, m/int(nproc) {
			assign[i] = device.Type(m % int(nproc))
		}
		if t := eval(assign); best == nil || t < bestT {
			bestT = t
			best = append([]device.Type(nil), assign...)
		}
	}
	return best, bestT, eval
}
