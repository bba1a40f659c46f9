// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output, and prints one JSON
// result line: end-to-end metrics in an untraced run (--trace 0), or
// per-layer metrics from a separate traced run (--trace 1). See README.md
// for the workloads, the metric definitions and the layer → end-to-end
// metric map.
//
//	bash perfbench/run.sh --workload infer-coop --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line settings shared by every workload.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// minSamples is the least number of latency samples a run collects,
	// even past its time budget, so that p90 has ten samples beyond it.
	minSamples int
	// setups, when not 0, overrides the workload's number of set-ups.
	setups int
	out    string
}

// workload runs one benchmark workload under a fixed GOMAXPROCS. The
// returned result holds the end-to-end metrics (trace off) or the
// per-layer metrics (trace on). Why each workload exists is in README.md.
type workload struct {
	gomaxprocs func() int
	// setups is how many times the system is set up from scratch; setup_s
	// is the median. Quick set-ups are repeated more, so that the median
	// spans more than one host phase (README.md).
	setups int
	run    func(o opts, w io.Writer) (result, error)
}

// The kernel-bound workloads pin one proc: on a small shared host a second
// one adds spread and no throughput (README.md).
var workloads = map[string]workload{
	"infer-coop":    {gomaxprocs: func() int { return 1 }, setups: 7, run: runInferCoop},
	"serve-payload": {gomaxprocs: func() int { return 1 }, setups: 25, run: runServePayload},
	"serve-paced":   {gomaxprocs: runtime.NumCPU, setups: 15, run: runServePaced},
}

func main() {
	o := opts{minSamples: 110}
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for traces and run records")
	golden := flag.Bool("write-golden", false, "recompute infer-coop output digests into golden.json and exit")
	flag.Parse()
	o.trace = *trace == 1

	if *golden {
		if err := writeGolden("golden.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload pins GOMAXPROCS for the workload, runs it, and records the
// result with its provenance under o.out. Progress and provenance go to
// log.
func runWorkload(o opts, log io.Writer) (result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if o.setups == 0 {
		o.setups = wl.setups
	}
	procs := wl.gomaxprocs()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	prov := provenance(o, procs)
	provLine, _ := json.Marshal(prov)
	fmt.Fprintf(log, "provenance %s\n", provLine)

	res, err := wl.run(o, log)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return res, err
	}
	rec, err := json.MarshalIndent(map[string]any{"provenance": prov, "result": res}, "", "  ")
	if err != nil {
		return res, err
	}
	name := fmt.Sprintf("perfbench-%s-seed%d-trace%t.json", o.workload, o.seed, o.trace)
	return res, os.WriteFile(filepath.Join(o.out, name), rec, 0o644)
}

// provenance records where and how a result was measured.
func provenance(o opts, procs int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"commit":     commit,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
	}
}

// cpuModel reads the host CPU model name (Linux), or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
