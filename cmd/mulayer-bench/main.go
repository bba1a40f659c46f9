// Command mulayer-bench regenerates the paper's tables and figures as
// text tables (DESIGN.md §4 maps each to the paper).
//
// Usage:
//
//	mulayer-bench                 # every latency/energy figure + Table 1
//	mulayer-bench -fig 16         # one figure
//	mulayer-bench -fig 10         # the (slower) numeric accuracy figure
//	mulayer-bench -ablations      # the design-choice ablations
//	mulayer-bench -all            # everything, including Figure 10
//	mulayer-bench -gemm           # kernel microbenchmark -> BENCH_gemm.json
//	mulayer-bench -gemm-verify f  # validate an existing BENCH_gemm.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"mulayer"
	"mulayer/internal/experiments"
	"mulayer/internal/gemmbench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mulayer-bench: ")
	fig := flag.String("fig", "", "render one figure/table: 5, 6, 8, 10, 12, 16, 17, 18, or t1")
	ablations := flag.Bool("ablations", false, "render the design-choice ablations")
	extensions := flag.Bool("extensions", false, "render the extension experiments (batch taxonomy, NPU)")
	all := flag.Bool("all", false, "render everything, including the numeric Figure 10")
	gemmBench := flag.Bool("gemm", false, "run the packed-vs-reference GEMM kernel benchmark")
	gemmOut := flag.String("gemm-out", "BENCH_gemm.json", "output path for -gemm")
	gemmShort := flag.Bool("gemm-short", false, "with -gemm: CI-sized smoke configuration")
	gemmVerify := flag.String("gemm-verify", "", "validate an existing BENCH_gemm.json and exit")
	flag.Parse()

	// The GEMM kernel modes stand alone: they need no weights, dataset,
	// or device models, so handle them before building the experiments
	// environment.
	if *gemmVerify != "" {
		data, err := os.ReadFile(*gemmVerify)
		if err != nil {
			log.Fatal(err)
		}
		if err := gemmbench.Validate(data); err != nil {
			log.Fatalf("%s: %v", *gemmVerify, err)
		}
		fmt.Printf("%s: ok\n", *gemmVerify)
		return
	}
	if *gemmBench {
		cfg := gemmbench.DefaultConfig()
		if *gemmShort {
			cfg = gemmbench.SmokeConfig()
		}
		rep, err := gemmbench.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := gemmbench.Validate(data); err != nil {
			log.Fatalf("generated report fails validation: %v", err)
		}
		if err := os.WriteFile(*gemmOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		for _, r := range rep.Shapes {
			fmt.Printf("%-4s %-24s m=%-5d k=%-6d n=%-6d  q: %6.2f -> %6.2f GOPS (%.2fx)  f32: %6.2f -> %6.2f GFLOPS (%.2fx)\n",
				r.Kind, r.Model+"/"+r.Layer, r.M, r.K, r.N,
				r.QRefGOPS, r.QPackedGOPS, r.QSpeedup,
				r.F32RefGFLOPS, r.F32PackedGFLOPS, r.F32Speedup)
		}
		fmt.Printf("summary: q conv max %.2fx, q fc max %.2fx, q geomean %.2fx, f32 geomean %.2fx -> %s\n",
			rep.Summary.QSpeedupConvMax, rep.Summary.QSpeedupFCMax,
			rep.Summary.QSpeedupGeoMean, rep.Summary.F32SpeedupGeo, *gemmOut)
		return
	}

	env, err := mulayer.NewExperiments()
	if err != nil {
		log.Fatal(err)
	}

	type entry struct {
		id  string
		gen func() (*experiments.Table, error)
	}
	fig10 := func() (*experiments.Table, error) {
		return env.Figure10(experiments.DefaultAccuracyConfig())
	}
	std := []entry{
		{"5", env.Figure5},
		{"6", env.Figure6},
		{"8", env.Figure8},
		{"12", env.Figure12},
		{"16", env.Figure16},
		{"17", env.Figure17},
		{"18", env.Figure18},
		{"t1", env.Table1},
	}
	abl := []entry{
		{"a1", env.AblationSplitGranularity},
		{"a2", env.AblationIssueAndMemory},
		{"a3", env.AblationBranchDistribution},
	}
	ext := []entry{
		{"e1", func() (*experiments.Table, error) { return env.ExtensionThroughput(8) }},
		{"e2", env.ExtensionNPU},
		{"e3", env.ExtensionPerChannel},
	}

	render := func(e entry) {
		tab, err := e.gen()
		if err != nil {
			log.Fatalf("figure %s: %v", e.id, err)
		}
		tab.Render(os.Stdout)
	}

	switch {
	case *fig != "":
		if *fig == "10" {
			render(entry{"10", fig10})
			return
		}
		for _, e := range append(append(std, abl...), ext...) {
			if e.id == *fig {
				render(e)
				return
			}
		}
		log.Fatalf("unknown figure %q (want 5, 6, 8, 10, 12, 16, 17, 18, t1, a1, a2, a3, e1, e2, e3)", *fig)
	case *ablations:
		for _, e := range abl {
			render(e)
		}
	case *extensions:
		for _, e := range ext {
			render(e)
		}
	case *all:
		for _, e := range std {
			render(e)
		}
		render(entry{"10", fig10})
		for _, e := range abl {
			render(e)
		}
		for _, e := range ext {
			render(e)
		}
	default:
		for _, e := range std {
			render(e)
		}
		fmt.Println("(run with -fig 10 for the numeric accuracy figure, -ablations for the design-choice sweeps, -extensions for the batch/NPU/per-channel extensions)")
	}
}
