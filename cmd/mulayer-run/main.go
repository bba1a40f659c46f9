// Command mulayer-run executes one network under a chosen mechanism on a
// modeled SoC and prints the latency/energy report, the per-layer plan,
// and (optionally) the simulated timeline.
//
// Usage:
//
//	mulayer-run -model googlenet -soc high -mech mulayer
//	mulayer-run -model vgg16 -soc mid -mech l2p -timeline
//	mulayer-run -model lenet5 -mech mulayer -numeric   # real kernels
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"mulayer"
	"mulayer/internal/core"
	"mulayer/internal/models"
	"mulayer/internal/soc"
)

var dtypes = map[string]mulayer.DataType{
	"f32": mulayer.F32, "f16": mulayer.F16, "quint8": mulayer.QUInt8,
}

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
	log.SetPrefix("mulayer-run: ")
	modelName := flag.String("model", "googlenet", "network: "+keys(models.Zoo))
	socName := flag.String("soc", "high", "SoC: high (Exynos 7420), mid (Exynos 7880), or npu (7420+EdgeNPU)")
	mechName := flag.String("mech", "mulayer", "mechanism: "+keys(core.Mechanisms))
	dtypeName := flag.String("dtype", "f32", "single-processor data type: "+keys(dtypes))
	numeric := flag.Bool("numeric", false, "run real kernels on a reduced model and report the top prediction")
	timeline := flag.Bool("timeline", false, "print the simulated execution timeline")
	tracePath := flag.String("trace", "", "write a Chrome Trace Event file (open in chrome://tracing or Perfetto)")
	seed := flag.Uint64("seed", 1, "weight/input seed for numeric runs")
	flag.Parse()

	build, ok := models.Zoo[*modelName]
	if !ok {
		log.Fatalf("unknown model %q (want %s)", *modelName, keys(models.Zoo))
	}
	mech, ok := core.Mechanisms[*mechName]
	if !ok {
		log.Fatalf("unknown mechanism %q (want %s)", *mechName, keys(core.Mechanisms))
	}
	dtype, ok := dtypes[*dtypeName]
	if !ok {
		log.Fatalf("unknown dtype %q (want %s)", *dtypeName, keys(dtypes))
	}
	buildSoC, ok := soc.Classes[*socName]
	if !ok {
		log.Fatalf("unknown SoC %q (want %s)", *socName, keys(soc.Classes))
	}
	s := buildSoC()

	cfg := mulayer.ModelConfig{Seed: *seed}
	if *numeric {
		cfg.Numeric = true
		cfg.WidthScale = 0.25
		cfg.Classes = 10
		cfg.InputHW = 32
		if *modelName == "alexnet" {
			cfg.InputHW = 67 // the stride-4 stem needs a larger input
		}
		if *modelName == "lenet5" {
			cfg = mulayer.ModelConfig{Numeric: true, Seed: *seed}
		}
	}
	m, err := build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	rt, err := mulayer.NewRuntime(s)
	if err != nil {
		log.Fatal(err)
	}

	var input *mulayer.Tensor
	if *numeric {
		if err := m.Calibrate(mulayer.CalibrationSet(m, 4, *seed+1000)); err != nil {
			log.Fatal(err)
		}
		input = mulayer.RandomInput(m, *seed+5)
	}

	plan, err := rt.Plan(m, mulayer.RunConfig{Mechanism: mech, DType: dtype})
	if err != nil {
		log.Fatal(err)
	}
	res, err := rt.Run(m, input, mulayer.RunConfig{Mechanism: mech, DType: dtype, Numeric: *numeric})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model      %s on %s\n", m.Name, s.Name)
	fmt.Printf("mechanism  %s\n", mech)
	fmt.Printf("plan       %d steps, %d cooperative splits, %d branch groups\n",
		len(plan.Steps), plan.SplitCount(), plan.BranchCount())
	fmt.Printf("report     %s\n", res.Report)
	if *numeric && res.Output != nil {
		best, bestV := 0, res.Output.Data[0]
		for i, v := range res.Output.Data {
			if v > bestV {
				best, bestV = i, v
			}
		}
		fmt.Printf("prediction class %d (p=%.3f)\n", best, bestV)
	}
	if *timeline {
		fmt.Println("timeline:")
		res.Timeline.Render(os.Stdout)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := res.Timeline.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace      %s (open in chrome://tracing)\n", *tracePath)
	}
}
