// Package partition implements μLayer's NN partitioner (§6, Figure 13):
// it turns a network graph into an execution plan by choosing, for every
// layer, the channel-wise split ratio p ∈ {0, 0.25, 0.5, 0.75, 1} that the
// latency predictor scores best (0 and 1 degenerate to single-processor
// execution), and by applying branch distribution (§5) to fork-join
// regions when assigning whole branches to processors beats splitting
// every layer.
//
// The same planner, restricted, produces the paper's baselines: single-
// processor plans (one processor allowed) and the state-of-the-art
// layer-to-processor plan (both processors allowed, splitting disabled).
package partition

import (
	"fmt"
	"math"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// Proc identifies a processor within a SoC.
type Proc int

// The processors of the modeled SoCs. ProcNPU exists only on NPU-equipped
// SoC variants (the §8.3 extension).
const (
	ProcCPU Proc = iota
	ProcGPU
	ProcNPU
)

// String implements fmt.Stringer.
func (p Proc) String() string {
	switch p {
	case ProcCPU:
		return "CPU"
	case ProcGPU:
		return "GPU"
	case ProcNPU:
		return "NPU"
	}
	return fmt.Sprintf("Proc(%d)", int(p))
}

// Pipeline describes which arithmetic each processor uses and how
// activations are stored between layers.
type Pipeline struct {
	// CPUType and GPUType are the compute data types per processor.
	CPUType, GPUType tensor.DataType
	// NPUType is the compute data type of the NPU on NPU-equipped SoCs
	// (§8.3: an NPU-friendly scheme, QUInt8 for TPU-class accelerators).
	NPUType tensor.DataType
	// GPUConverted marks the GPU pipeline as QUInt8-storage/F16-compute
	// (the on-the-fly conversion of processor-friendly quantization).
	GPUConverted bool
	// Storage is the at-rest activation data type.
	Storage tensor.DataType
}

// Uniform returns a pipeline where every processor computes and stores dt.
func Uniform(dt tensor.DataType) Pipeline {
	return Pipeline{CPUType: dt, GPUType: dt, NPUType: dt, Storage: dt}
}

// ProcessorFriendly returns the paper's processor-friendly quantization
// pipeline (§4.2): QUInt8 storage everywhere, QUInt8 compute on the CPU,
// F16 compute with on-the-fly conversion on the GPU.
func ProcessorFriendly() Pipeline {
	return Pipeline{
		CPUType:      tensor.QUInt8,
		GPUType:      tensor.F16,
		NPUType:      tensor.QUInt8, // NPUs are integer-native (§8.3)
		GPUConverted: true,
		Storage:      tensor.QUInt8,
	}
}

// ComputeType returns the compute data type for one processor.
func (pl Pipeline) ComputeType(p Proc) tensor.DataType {
	switch p {
	case ProcCPU:
		return pl.CPUType
	case ProcNPU:
		return pl.NPUType
	}
	return pl.GPUType
}

// Converted reports whether the processor's kernels convert between
// storage and compute types on the fly.
func (pl Pipeline) Converted(p Proc) bool {
	return p == ProcGPU && pl.GPUConverted
}

// WeightBytes returns the per-element weight storage width on a processor:
// μLayer uploads GPU filters dequantized to F16 (§6), so the converted
// pipeline reads 2-byte weights on the GPU and 1-byte weights on the CPU.
func (pl Pipeline) WeightBytes(p Proc) int64 {
	if pl.Converted(p) {
		return tensor.F16.Size()
	}
	return pl.ComputeType(p).Size()
}

// LayerStep executes one layer with split ratio P: the CPU computes the
// fraction P of the output channels and the GPU the remainder. P==1 and
// P==0 are single-processor steps. On NPU-equipped SoCs (§8.3) PNPU
// carves an additional share for the NPU; the GPU computes 1-P-PNPU.
// Channels turns the shares into whole channel counts.
type LayerStep struct {
	Node graph.NodeID
	P    float64
	PNPU float64
}

// BranchStep executes one fork-join branch group with whole branches
// assigned to processors; no layer inside is channel-split (§5).
type BranchStep struct {
	Group  graph.BranchGroup
	Assign []Proc // Assign[i] runs Group.Branches[i]
}

// Step is one plan entry: exactly one of Layer or Branch is set.
type Step struct {
	Layer  *LayerStep
	Branch *BranchStep
}

// Plan is an ordered execution plan covering every non-input node exactly
// once.
type Plan struct {
	Steps     []Step
	Predicted time.Duration // planner's own latency estimate
}

// Options configures the planner.
type Options struct {
	SoC  *soc.SoC
	Pred *profile.Predictor
	Pipe Pipeline
	// Grid lists the cooperative split ratios considered (the paper uses
	// {0.25, 0.5, 0.75}); 0 and 1 are always candidates.
	Grid []float64
	// AllowCPU/AllowGPU restrict the processors (single-processor
	// baselines disable one side).
	AllowCPU, AllowGPU bool
	// AllowSplit enables the channel-wise workload distribution. With it
	// disabled and both processors allowed, the planner degenerates to the
	// layer-to-processor mechanism.
	AllowSplit bool
	// BranchDist enables branch distribution over fork-join groups.
	BranchDist bool
	// AllowNPU adds the SoC's NPU (when present) as a third cooperative
	// target: three-way channel splits and three-way branch assignment —
	// the §8.3 extension.
	AllowNPU bool
	// NPUOnly runs the whole network on the NPU (the accelerator-only
	// baseline of the §8.3 experiments).
	NPUOnly bool
	// SingleFallback additionally considers p=0 and p=1 for splittable
	// layers, spanning the paper's full "0 ≤ p ≤ 1" ratio range (§6).
	// With it off, the planner uses only the interior implementation grid
	// {0.25, 0.5, 0.75} — every splittable layer is force-split, the
	// behavior Figure 12 labels "Cooperative" and §5 motivates branch
	// distribution against.
	SingleFallback bool
	// ForceBranch branch-distributes every fork-join group regardless of
	// the cost comparison — Figure 12's "Cooperative (Optimal)" scenario.
	ForceBranch bool
}

// DefaultGrid is the paper's split-ratio grid (§6).
var DefaultGrid = []float64{0.25, 0.5, 0.75}

// Validate checks the option combination.
func (o Options) Validate() error {
	if o.SoC == nil || o.Pred == nil {
		return fmt.Errorf("partition: SoC and predictor are required")
	}
	if !o.AllowCPU && !o.AllowGPU && !o.NPUOnly {
		return fmt.Errorf("partition: at least one processor must be allowed")
	}
	if o.NPUOnly && o.SoC != nil && o.SoC.NPU == nil {
		return fmt.Errorf("partition: NPUOnly requires an NPU-equipped SoC")
	}
	for _, g := range o.Grid {
		if g <= 0 || g >= 1 {
			return fmt.Errorf("partition: grid ratio %v outside (0,1)", g)
		}
	}
	return nil
}

// proc returns the device model for one processor.
func (o Options) proc(p Proc) *device.Processor {
	switch p {
	case ProcCPU:
		return o.SoC.CPU
	case ProcNPU:
		return o.SoC.NPU
	}
	return o.SoC.GPU
}

// npuEnabled reports whether the SoC's NPU joins the CPU and the GPU as a
// third cooperative target — the §8.3 extension: "the channel-wise
// workload distribution can be extended to distribute a layer's output
// channels to not only the CPU and the GPU, but also the NPU".
func (o Options) npuEnabled() bool {
	return o.AllowNPU && o.SoC.NPU != nil && o.AllowCPU && o.AllowGPU
}

// predictKernel estimates the kernel time of one full layer on a
// processor (no dispatch overhead).
func (o Options) predictKernel(p Proc, kind nn.OpKind, c nn.Cost) time.Duration {
	return o.Pred.Predict(o.proc(p).Name, kind, o.Pipe.ComputeType(p), o.Pipe.Converted(p), c)
}

// coopSync estimates the per-layer merge synchronization of a cooperative
// layer: the zero-copy map/unmap maintains coherence over the shared input
// and output buffers.
func (o Options) coopSync(c nn.Cost) time.Duration {
	return o.SoC.SyncCost((c.InElems + c.OutElems) * o.Pipe.Storage.Size())
}

// Channels turns a layer step's CPU share p and NPU share pn into whole
// output-channel counts, indexed by Proc, for a layer with c split
// channels (c < 1 counts as one channel: a layer that cannot split). It
// is the one channel rule: the planner scores, the device model times and
// the executor runs exactly these counts. An NPU share of 1 runs the
// layer on the NPU; any other NPU share splits three ways, each share
// rounded to whole channels and the GPU taking the remainder; a CPU share
// of 1 (or a layer with fewer than two channels) runs on the CPU and a
// share of 0 on the GPU; otherwise the CPU's rounded share is clamped so
// both processors keep at least one channel.
func Channels(p, pn float64, c int) (ch [3]int) {
	c = max(c, 1)
	round := func(share float64) int { return int(math.Round(share * float64(c))) }
	switch {
	case pn >= 1:
		ch[ProcNPU] = c
	case pn <= 0 && p <= 0:
		ch[ProcGPU] = c
	case c < 2 || (pn <= 0 && p >= 1):
		ch[ProcCPU] = c
	case pn > 0:
		ch[ProcCPU] = min(round(p), c)
		ch[ProcNPU] = min(round(pn), c-ch[ProcCPU])
		ch[ProcGPU] = c - ch[ProcCPU] - ch[ProcNPU]
	default:
		ch[ProcCPU] = min(max(round(p), 1), c-1)
		ch[ProcGPU] = c - ch[ProcCPU]
	}
	return ch
}

// Shares returns each processor's fraction of the channel counts ch, the
// factor its share of the layer cost is scaled by: the CPU and the NPU
// their own channel fraction, the GPU the remainder 1-cpu-npu (1-p for a
// two-processor split). nn.Cost.Scale truncates, so computing the GPU's
// own fraction instead could move a figure by an ulp.
func Shares(ch [3]int) (s [3]float64) {
	c := float64(ch[ProcCPU] + ch[ProcGPU] + ch[ProcNPU])
	s[ProcCPU] = float64(ch[ProcCPU]) / c
	s[ProcNPU] = float64(ch[ProcNPU]) / c
	s[ProcGPU] = 1 - s[ProcCPU] - s[ProcNPU]
	return s
}

// candidates calls try with every (CPU, NPU) share pair the planner
// scores for one layer, in tie-break order. Following §6, a splittable
// layer under two-processor cooperative execution picks from the grid
// only, plus the single-processor ratios when the SingleFallback
// extension is on. The §8.3 three-processor planner scores the quarter-
// step (CPU, GPU, NPU) tuples as whole-channel shares — the natural
// extension of the paper's {0.25, 0.5, 0.75} grid, single-processor and
// two-processor tuples included — or the three single processors for a
// layer that cannot split. Layers that must run whole (concat, softmax)
// take nonSplitProc.
func (o Options) candidates(kind nn.OpKind, splitCh int, try func(p, pn float64)) {
	switch {
	case o.NPUOnly:
		try(0, 1)
	case kind == nn.OpConcat || kind == nn.OpSoftmax:
		try(o.nonSplitProc(), 0)
	case o.npuEnabled() && splitCh < 2:
		try(1, 0)
		try(0, 0)
		try(0, 1)
	case o.npuEnabled():
		c := float64(splitCh)
		for q := 0; q <= 4; q++ {
			for g := 0; q+g <= 4; g++ {
				ch := Channels(float64(q)/4, float64(4-q-g)/4, splitCh)
				try(float64(ch[ProcCPU])/c, float64(ch[ProcNPU])/c)
			}
		}
	default:
		coop := splitCh > 1 && o.AllowSplit && o.AllowCPU && o.AllowGPU
		if coop {
			for _, p := range o.Grid {
				try(p, 0)
			}
		}
		if !coop || o.SingleFallback {
			if o.AllowCPU {
				try(1, 0)
			}
			if o.AllowGPU {
				try(0, 0)
			}
		}
	}
}

// bestSplit scores the candidate shares of one layer and returns the
// chosen CPU and NPU shares (the GPU computes the remainder) with the
// predicted latency. The regression predictor supplies each processor's
// full-layer kernel estimate; a share scales it linearly, derated by the
// partial-kernel channel efficiency, plus the processor's launch. The
// slowest active processor sets the layer's latency, and a layer on more
// than one processor pays the merge synchronization.
func (o Options) bestSplit(kind nn.OpKind, c nn.Cost, splitCh int) (p, pn float64, best time.Duration) {
	var full [3]time.Duration // full-layer kernel estimates, filled on first use
	first := true
	o.candidates(kind, splitCh, func(cp, cpn float64) {
		ch := Channels(cp, cpn, splitCh)
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
			if full[side] == 0 {
				full[side] = o.predictKernel(side, kind, c)
			}
			eff := 1.0
			if k < n {
				eff = o.proc(side).SplitEfficiency(k)
			}
			t = max(t, time.Duration(float64(full[side])*share[side]/eff)+o.proc(side).LaunchOverhead)
		}
		if active > 1 {
			t += o.coopSync(c)
		}
		if first || t < best {
			first = false
			p, pn, best = cp, cpn, t
		}
	})
	if first {
		panic("partition: no processor allowed")
	}
	return p, pn, best
}

// nonSplitProc places layers that must run whole (concat, softmax) —
// the CPU when available, since the merged activations live in shared
// memory mapped on the CPU side.
func (o Options) nonSplitProc() float64 {
	if o.AllowCPU {
		return 1
	}
	return 0
}

// Build produces the execution plan for g.
func Build(g *graph.Graph, o Options) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.AllowSplit && len(o.Grid) == 0 {
		o.Grid = DefaultGrid
	}
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	order, err := g.Toposort()
	if err != nil {
		return nil, err
	}

	// Decide branch distribution per group.
	type groupPlan struct {
		step    *BranchStep
		est     time.Duration
		emitted bool
	}
	inGroup := make(map[graph.NodeID]*groupPlan)
	if o.BranchDist && o.AllowCPU && o.AllowGPU {
		for _, bg := range g.BranchGroups() {
			// §5: branch decisions work from collected per-branch execution
			// latencies (the device model here), not the regression.
			var assign []Proc
			var branchT time.Duration
			if o.npuEnabled() {
				assign, branchT = o.simBranchSearch3(g, bg, shapes)
			} else {
				assign, branchT = o.simBranchAssign(g, bg, shapes)
			}
			if assign == nil {
				continue
			}
			// Compare against executing the same nodes with the per-layer
			// plan (serialized layers), unless branch distribution is
			// forced.
			if o.ForceBranch || branchT < o.simCoopGroup(g, bg, shapes) {
				gp := &groupPlan{step: &BranchStep{Group: bg, Assign: assign}, est: branchT}
				for id := range bg.Members() {
					inGroup[id] = gp
				}
			}
		}
	}

	plan := &Plan{}
	var predicted time.Duration
	for _, id := range order {
		n := g.Node(id)
		if n.Layer.Kind() == nn.OpInput {
			continue
		}
		if gp, ok := inGroup[id]; ok {
			if !gp.emitted {
				plan.Steps = append(plan.Steps, Step{Branch: gp.step})
				predicted += gp.est
				gp.emitted = true
			}
			continue
		}
		ins := g.InputShapes(id, shapes)
		p, pn, t := o.bestSplit(n.Layer.Kind(), n.Layer.Cost(ins), n.Layer.SplitChannels(ins))
		plan.Steps = append(plan.Steps, Step{Layer: &LayerStep{Node: id, P: p, PNPU: pn}})
		predicted += t
	}
	plan.Predicted = predicted
	return plan, nil
}

// Covered returns the set of nodes the plan executes; tests use it to
// verify exactly-once coverage.
func (p *Plan) Covered() map[graph.NodeID]int {
	seen := make(map[graph.NodeID]int)
	for _, s := range p.Steps {
		switch {
		case s.Layer != nil:
			seen[s.Layer.Node]++
		case s.Branch != nil:
			for _, br := range s.Branch.Group.Branches {
				for _, id := range br {
					seen[id]++
				}
			}
		}
	}
	return seen
}

// SplitCount returns how many steps use a true cooperative split (two or
// more processors active) — a diagnostic for the experiments.
func (p *Plan) SplitCount() int {
	n := 0
	for _, s := range p.Steps {
		if s.Layer == nil {
			continue
		}
		active := 0
		for _, share := range []float64{s.Layer.P, s.Layer.PNPU, 1 - s.Layer.P - s.Layer.PNPU} {
			if share > 1e-9 {
				active++
			}
		}
		if active >= 2 {
			n++
		}
	}
	return n
}

// MeanSplit returns the mean CPU split ratio over the plan's layer steps —
// the one-number split summary surfaced by plan caches and serving
// metrics. Branch-distributed steps carry no split ratio and are skipped;
// a plan with no layer steps reports 0.
func (p *Plan) MeanSplit() float64 {
	var sum float64
	n := 0
	for _, s := range p.Steps {
		if s.Layer == nil {
			continue
		}
		sum += s.Layer.P
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BranchCount returns the number of branch-distributed groups in the plan.
func (p *Plan) BranchCount() int {
	n := 0
	for _, s := range p.Steps {
		if s.Branch != nil {
			n++
		}
	}
	return n
}
