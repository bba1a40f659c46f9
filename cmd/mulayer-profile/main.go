// Command mulayer-profile prints per-layer device profiles for a network —
// the data the latency predictor is fitted on — plus the predictor's fit
// quality per op class, mirroring the offline profiling pass of §6.
//
// Usage:
//
//	mulayer-profile -model vgg16 -soc high
//	mulayer-profile -fit            # predictor fit-error summary only
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"mulayer"
	"mulayer/internal/device"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// keys lists a name table's names, sorted, for help texts and errors.
func keys[V any](m map[string]V) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mulayer-profile: ")
	modelName := flag.String("model", "vgg16", "network to profile: "+keys(models.Zoo))
	socName := flag.String("soc", "high", "SoC: "+keys(soc.Classes))
	fitOnly := flag.Bool("fit", false, "print only the predictor fit-error summary")
	flag.Parse()

	buildSoC, ok := soc.Classes[*socName]
	if !ok {
		log.Fatalf("unknown SoC %q (want %s)", *socName, keys(soc.Classes))
	}
	s := buildSoC()
	pred := profile.Build(s.CPU, s.GPU)

	if *fitOnly {
		fmt.Printf("predictor fit (geomean relative error vs the device model), %s:\n", s.Name)
		for _, kind := range []nn.OpKind{nn.OpConv, nn.OpDepthwise, nn.OpFC, nn.OpMaxPool} {
			for _, dt := range []mulayer.DataType{mulayer.F32, mulayer.QUInt8} {
				fmt.Printf("  %-8s %-7v cpu %5.1f%%  gpu %5.1f%%\n", kind, dt,
					profile.FitError(pred, s.CPU, kind, dt)*100,
					profile.FitError(pred, s.GPU, kind, dt)*100)
			}
		}
		return
	}

	build, ok := models.Zoo[*modelName]
	if !ok {
		log.Fatalf("unknown model %q (want %s)", *modelName, keys(models.Zoo))
	}
	m, err := build(models.Config{})
	if err != nil {
		log.Fatal(err)
	}
	shapes, err := m.Graph.InferShapes()
	if err != nil {
		log.Fatal(err)
	}

	pipe := partition.ProcessorFriendly()
	fmt.Printf("%s per-layer profile on %s (CPU: QUInt8, GPU: F16-from-QUInt8)\n", m.Name, s.Name)
	fmt.Printf("%-28s %-8s %12s %12s %12s %8s\n", "layer", "kind", "MACs", "cpu(ms)", "gpu(ms)", "pred/dev")
	for i := 0; i < m.Graph.Len(); i++ {
		n := m.Graph.Node(graph.NodeID(i))
		if n.Layer.Kind() == nn.OpInput {
			continue
		}
		c := n.Layer.Cost(m.Graph.InputShapes(n.ID, shapes))
		cpuT := s.CPU.KernelTime(pipe.Work(device.CPU, n.Layer.Kind(), c, 0, 1))
		gpuT := s.GPU.KernelTime(pipe.Work(device.GPU, n.Layer.Kind(), c, 0, 1))
		predT := pred.Predict(s.CPU.Name, n.Layer.Kind(), tensor.QUInt8, false, c)
		ratio := 0.0
		if cpuT > 0 {
			ratio = float64(predT) / float64(cpuT)
		}
		fmt.Printf("%-28s %-8s %12d %12.3f %12.3f %8.2f\n",
			n.Layer.Name(), n.Layer.Kind(), c.MACs,
			float64(cpuT)/1e6, float64(gpuT)/1e6, ratio)
	}
}
