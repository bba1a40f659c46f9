package partition

import (
	"time"

	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// Three-way planning for NPU-equipped SoCs — the §8.3 extension: "the
// channel-wise workload distribution can be extended to distribute a
// layer's output channels to not only the CPU and the GPU, but also the
// NPU", and "the branch distribution can benefit from having the NPU by
// being able to run more branches in parallel".

// npuEnabled reports whether three-way planning applies.
func (o Options) npuEnabled() bool {
	return o.AllowNPU && o.SoC.NPU != nil && o.AllowCPU && o.AllowGPU
}

// shares3 is one candidate (CPU, GPU, NPU) share assignment.
type shares3 struct{ cpu, gpu, npu float64 }

// threeWayGrid enumerates share tuples in quarter steps (the natural
// extension of the paper's {0.25, 0.5, 0.75} grid), including the
// single-processor and two-processor degenerate tuples.
func threeWayGrid() []shares3 {
	var out []shares3
	for c := 0; c <= 4; c++ {
		for g := 0; g+c <= 4; g++ {
			n := 4 - c - g
			out = append(out, shares3{float64(c) / 4, float64(g) / 4, float64(n) / 4})
		}
	}
	return out
}

// splitChannels3 converts shares into channel counts summing to splitCh.
func splitChannels3(s shares3, splitCh int) (cpu, gpu, npu int) {
	return SplitChannels3(s.cpu, s.npu, splitCh)
}

// SplitChannels3 converts a (CPU, NPU) share pair into three channel
// counts summing to splitCh (the GPU takes the remainder). The executor
// uses the same rounding so plans and simulation agree exactly.
func SplitChannels3(cpuShare, npuShare float64, splitCh int) (cpu, gpu, npu int) {
	cpu = int(float64(cpuShare*float64(splitCh)) + 0.5)
	npu = int(float64(npuShare*float64(splitCh)) + 0.5)
	if cpu > splitCh {
		cpu = splitCh
	}
	if npu > splitCh-cpu {
		npu = splitCh - cpu
	}
	gpu = splitCh - cpu - npu
	return cpu, gpu, npu
}

// simLayerAt3 is the device-model latency of one layer executed at the
// given three-way shares, mirroring the executor's timing: active sides
// run concurrently (async issue), and any multi-processor execution pays
// one merge synchronization.
func (o Options) simLayerAt3(kind nn.OpKind, c nn.Cost, splitCh int, s shares3) time.Duration {
	cpuCh, gpuCh, npuCh := splitChannels3(s, splitCh)
	active := 0
	var longest time.Duration
	side := func(p Proc, ch int) {
		if ch <= 0 {
			return
		}
		active++
		share := float64(ch) / float64(splitCh)
		sideCh := ch
		if ch == splitCh {
			sideCh = 0 // a full kernel pays no split penalty
		}
		proc := o.proc(p)
		t := proc.LaunchOverhead + proc.KernelTime(o.Pipe.Work(p, kind, c.Scale(share), sideCh))
		if t > longest {
			longest = t
		}
	}
	side(ProcCPU, cpuCh)
	side(ProcGPU, gpuCh)
	side(ProcNPU, npuCh)
	if active > 1 {
		longest += o.coopSync(c)
	}
	return longest
}

// bestSplit3 scores the three-way grid and returns the chosen CPU and NPU
// shares (the GPU computes the remainder) with the predicted latency.
// Following §6's structure, the regression predictor supplies the per-
// processor full-layer estimates and shares scale them linearly.
func (o Options) bestSplit3(kind nn.OpKind, c nn.Cost, splitCh int) (cpu, npu float64, best time.Duration) {
	full := [3]time.Duration{
		o.predictKernel(ProcCPU, kind, c),
		o.predictKernel(ProcGPU, kind, c),
		o.predictKernel(ProcNPU, kind, c),
	}
	sync := o.coopSync(c)
	first := true
	for _, s := range threeWayGrid() {
		cpuCh, gpuCh, npuCh := splitChannels3(s, splitCh)
		var longest time.Duration
		active := 0
		side := func(p Proc, ch int, fullT time.Duration) {
			if ch <= 0 {
				return
			}
			active++
			share := float64(ch) / float64(splitCh)
			eff := 1.0
			if ch < splitCh {
				eff = o.proc(p).SplitEfficiency(ch)
			}
			t := time.Duration(float64(fullT)*share/eff) + o.proc(p).LaunchOverhead
			if t > longest {
				longest = t
			}
		}
		side(ProcCPU, cpuCh, full[0])
		side(ProcGPU, gpuCh, full[1])
		side(ProcNPU, npuCh, full[2])
		if active == 0 {
			continue
		}
		t := longest
		if active > 1 {
			t += sync
		}
		if first || t < best {
			first = false
			best = t
			cpu = float64(cpuCh) / float64(splitCh)
			npu = float64(npuCh) / float64(splitCh)
		}
	}
	return cpu, npu, best
}

// bestSingle3 picks the fastest single processor among the three for a
// layer that cannot be split.
func (o Options) bestSingle3(kind nn.OpKind, c nn.Cost) (cpu, npu float64, best time.Duration) {
	procs := []Proc{ProcCPU, ProcGPU, ProcNPU}
	bestP := ProcCPU
	for i, p := range procs {
		t := o.predictOn(p, kind, c)
		if i == 0 || t < best {
			best = t
			bestP = p
		}
	}
	switch bestP {
	case ProcCPU:
		return 1, 0, best
	case ProcNPU:
		return 0, 1, best
	}
	return 0, 0, best
}

// simBranchSearch3 is the three-way branch-assignment search (§8.3: "run
// more branches in parallel"). It mirrors simBranchSearch with a base-3
// enumeration; non-CPU-produced branch outputs pay one synchronization
// before the join.
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

// simCoopGroup3 mirrors simCoopGroup for the three-way planner.
func (o Options) simCoopGroup3(g *graph.Graph, bg graph.BranchGroup, shapes map[graph.NodeID]tensor.Shape) time.Duration {
	var total time.Duration
	for _, br := range bg.Branches {
		for _, id := range br {
			n := g.Node(id)
			ins := g.InputShapes(id, shapes)
			total += o.simPlanned3Layer(n.Layer.Kind(), n.Layer.Cost(ins), n.Layer.SplitChannels(ins))
		}
	}
	return total
}

// simPlanned3Layer mirrors simPlannedLayer for the three-way planner.
func (o Options) simPlanned3Layer(kind nn.OpKind, c nn.Cost, splitCh int) time.Duration {
	if kind == nn.OpConcat || kind == nn.OpSoftmax || splitCh < 2 {
		return o.simLayerAt3(kind, c, 1, shares3{cpu: 1})
	}
	cpu, npu, _ := o.bestSplit3(kind, c, splitCh)
	return o.simLayerAt3(kind, c, splitCh, shares3{cpu: cpu, gpu: 1 - cpu - npu, npu: npu})
}
