// Branch distribution deep dive: reproduce the Figure 12 scenario
// programmatically on GoogLeNet's first Inception module — enumerate every
// branch→processor mapping, show the per-branch latencies behind the
// decision, and compare CPU-only, always-split cooperative, and
// branch-distributed execution.
//
//	go run ./examples/branches
package main

import (
	"fmt"
	"log"

	"mulayer"
	"mulayer/internal/device"
	"mulayer/internal/exec"
	"mulayer/internal/partition"
)

func main() {
	s := mulayer.Exynos7420()
	rt, err := mulayer.NewRuntime(s)
	if err != nil {
		log.Fatal(err)
	}
	module, err := mulayer.Inception3a(mulayer.ModelConfig{})
	if err != nil {
		log.Fatal(err)
	}

	groups := module.Graph.BranchGroups()
	if len(groups) != 1 {
		log.Fatalf("expected 1 branch group, found %d", len(groups))
	}
	bg := groups[0]
	shapes, err := module.Graph.InferShapes()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d divergent branches into %q\n\n",
		module.Name, len(bg.Branches), module.Graph.Node(bg.Join).Layer.Name())
	pipe := partition.ProcessorFriendly()
	for i, br := range bg.Branches {
		fmt.Printf("branch %d:\n", i)
		for _, id := range br {
			n := module.Graph.Node(id)
			c := n.Layer.Cost(module.Graph.InputShapes(id, shapes))
			cpuT := s.CPU.KernelTime(pipe.Work(device.CPU, n.Layer.Kind(), c, 0, 1))
			gpuT := s.GPU.KernelTime(pipe.Work(device.GPU, n.Layer.Kind(), c, 0, 1))
			fmt.Printf("  %-28s %10.1f MMACs   cpu %7.3fms   gpu %7.3fms\n",
				n.Layer.Name(), float64(c.MACs)/1e6, float64(cpuT)/1e6, float64(gpuT)/1e6)
		}
	}

	// The three Figure 12 scenarios.
	run := func(label string, rc mulayer.RunConfig, opts func(*partition.Options)) {
		o, plan, res := planAndRun(rt, module, rc, opts)
		_ = o
		fmt.Printf("%-38s %8.3fms  (splits=%d, branch groups=%d)\n",
			label, float64(res.Report.Latency)/1e6, plan.SplitCount(), plan.BranchCount())
	}
	fmt.Println("\nexecution scenarios (Figure 12):")
	run("CPU-only (QUInt8)", mulayer.RunConfig{Mechanism: mulayer.MechCPUOnly, DType: mulayer.QUInt8}, nil)
	run("Cooperative (always-split grid)", mulayer.RunConfig{Mechanism: mulayer.MechChannelDistProcQuant},
		func(o *partition.Options) { o.SingleFallback = false })
	run("Cooperative (optimal branch mapping)", mulayer.RunConfig{Mechanism: mulayer.MechMuLayer},
		func(o *partition.Options) { o.SingleFallback = false; o.ForceBranch = true })
	run("uLayer (free ratio + branch choice)", mulayer.RunConfig{Mechanism: mulayer.MechMuLayer}, nil)
	fmt.Println("\nThe always-split configuration pays a CPU-GPU synchronization on every")
	fmt.Println("layer and starves split kernels of channels; assigning whole branches to")
	fmt.Println("processors recovers that loss (§5). The full planner picks per layer.")
}

// planAndRun mirrors Runtime.Run but lets the example tweak the planner
// options to force the Figure 12 scenarios.
func planAndRun(rt *mulayer.Runtime, m *mulayer.Model, rc mulayer.RunConfig, tweak func(*partition.Options)) (partition.Options, *mulayer.Plan, *mulayer.Result) {
	var o partition.Options
	switch rc.Mechanism {
	case mulayer.MechCPUOnly:
		o = partition.SingleProcessor(rt.SoC(), rt.Predictor(), device.CPU, rc.DType)
	case mulayer.MechChannelDistProcQuant:
		o = partition.ChannelDistProcQuant(rt.SoC(), rt.Predictor())
	default:
		o = partition.MuLayer(rt.SoC(), rt.Predictor())
	}
	if tweak != nil {
		tweak(&o)
	}
	plan, err := partition.Build(m.Graph, o)
	if err != nil {
		log.Fatal(err)
	}
	res, err := exec.Run(m.Graph, plan, nil, exec.Config{
		SoC: rt.SoC(), Pipe: o.Pipe, AsyncIssue: true, ZeroCopy: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	return o, plan, res
}
