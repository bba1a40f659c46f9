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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mulayer"
	"mulayer/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mulayer-bench: ")
	fig := flag.String("fig", "", "render one figure/table: 5, 6, 8, 10, 12, 16, 17, 18, or t1")
	ablations := flag.Bool("ablations", false, "render the design-choice ablations")
	extensions := flag.Bool("extensions", false, "render the extension experiments (batch taxonomy, NPU)")
	all := flag.Bool("all", false, "render everything, including the numeric Figure 10")
	flag.Parse()

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
