// Benchmarks that regenerate every table and figure of the paper's
// motivation and evaluation sections. Each BenchmarkFigure* prints its
// table once (so `go test -bench=.` reproduces the evaluation) and then
// times the harness itself. See EXPERIMENTS.md for paper-vs-measured
// numbers and DESIGN.md §4 for the experiment index.
package mulayer_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"mulayer"
	"mulayer/internal/experiments"
	"mulayer/internal/server"
	"mulayer/internal/soc"
)

var (
	envOnce sync.Once
	env     *mulayer.Experiments
	printed sync.Map
)

func benchEnv(b *testing.B) *mulayer.Experiments {
	b.Helper()
	envOnce.Do(func() {
		e, err := mulayer.NewExperiments()
		if err != nil {
			b.Fatal(err)
		}
		env = e
	})
	return env
}

// renderOnce prints a table the first time its benchmark runs.
func renderOnce(id string, tab *experiments.Table) {
	if _, dup := printed.LoadOrStore(id, true); !dup {
		tab.Render(os.Stdout)
	}
}

func benchFigure(b *testing.B, id string, gen func() (*experiments.Table, error)) {
	e := benchEnv(b)
	_ = e
	for i := 0; i < b.N; i++ {
		tab, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		renderOnce(id, tab)
	}
}

// BenchmarkFigure5PerLayerVGG16 regenerates Figure 5: per-layer VGG-16
// latency, CPU vs GPU, on both SoCs.
func BenchmarkFigure5PerLayerVGG16(b *testing.B) {
	benchFigure(b, "fig5", benchEnv(b).Figure5)
}

// BenchmarkFigure6SingleProcessor regenerates Figure 6: whole-network
// CPU-only vs GPU-only latency across the five NNs.
func BenchmarkFigure6SingleProcessor(b *testing.B) {
	benchFigure(b, "fig6", benchEnv(b).Figure6)
}

// BenchmarkFigure8Quantization regenerates Figure 8: the impact of F16 and
// QUInt8 on CPU and GPU latency.
func BenchmarkFigure8Quantization(b *testing.B) {
	benchFigure(b, "fig8", benchEnv(b).Figure8)
}

// BenchmarkFigure10Accuracy regenerates Figure 10 under the teacher-label
// substitution: top-5 agreement of F16, naive QUInt8, and range-calibrated
// QUInt8 with the F32 network.
func BenchmarkFigure10Accuracy(b *testing.B) {
	e := benchEnv(b)
	cfg := experiments.DefaultAccuracyConfig()
	for i := 0; i < b.N; i++ {
		tab, err := e.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce("fig10", tab)
	}
}

// BenchmarkFigure12BranchPotential regenerates Figure 12: CPU-only vs
// always-split cooperative vs optimal branch distribution on GoogLeNet's
// first Inception module.
func BenchmarkFigure12BranchPotential(b *testing.B) {
	benchFigure(b, "fig12", benchEnv(b).Figure12)
}

// BenchmarkFigure16Latency regenerates Figure 16: the headline latency
// comparison of single-processor, layer-to-processor, and μLayer.
func BenchmarkFigure16Latency(b *testing.B) {
	benchFigure(b, "fig16", benchEnv(b).Figure16)
}

// BenchmarkFigure17Ablation regenerates Figure 17: the incremental
// contribution of channel distribution, processor-friendly quantization,
// and branch distribution.
func BenchmarkFigure17Ablation(b *testing.B) {
	benchFigure(b, "fig17", benchEnv(b).Figure17)
}

// BenchmarkFigure18Energy regenerates Figure 18: per-inference energy for
// the same mechanism suite.
func BenchmarkFigure18Energy(b *testing.B) {
	benchFigure(b, "fig18", benchEnv(b).Figure18)
}

// BenchmarkTable1Applicability regenerates Table 1: the evaluated NNs and
// which μLayer mechanisms apply to each.
func BenchmarkTable1Applicability(b *testing.B) {
	benchFigure(b, "tab1", benchEnv(b).Table1)
}

// BenchmarkAblationSplitGranularity sweeps the split-ratio grid
// granularity (DESIGN.md §6).
func BenchmarkAblationSplitGranularity(b *testing.B) {
	benchFigure(b, "abl1", benchEnv(b).AblationSplitGranularity)
}

// BenchmarkAblationAsyncIssue measures §6's implementation optimizations:
// asynchronous GPU command issue and zero-copy memory on/off.
func BenchmarkAblationAsyncIssue(b *testing.B) {
	benchFigure(b, "abl2", benchEnv(b).AblationIssueAndMemory)
}

// BenchmarkAblationZeroCopy is an alias target kept for the DESIGN.md
// index; zero-copy is swept together with async issue in Ablation A2.
func BenchmarkAblationZeroCopy(b *testing.B) {
	benchFigure(b, "abl2b", benchEnv(b).AblationIssueAndMemory)
}

// BenchmarkAblationBranchDistribution isolates branch distribution on the
// branchy NNs across both SoCs.
func BenchmarkAblationBranchDistribution(b *testing.B) {
	benchFigure(b, "abl3", benchEnv(b).AblationBranchDistribution)
}

// BenchmarkExtensionThroughput regenerates the multi-input taxonomy table
// (the §2.2 / Figure 4 extension experiment).
func BenchmarkExtensionThroughput(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		tab, err := e.ExtensionThroughput(8)
		if err != nil {
			b.Fatal(err)
		}
		renderOnce("ext1", tab)
	}
}

// BenchmarkExtensionNPU regenerates the §8.3 NPU-extension table:
// three-way CPU+GPU+NPU μLayer vs two-way μLayer and NPU-only.
func BenchmarkExtensionNPU(b *testing.B) {
	benchFigure(b, "ext2", benchEnv(b).ExtensionNPU)
}

// BenchmarkExtensionPerChannel regenerates the per-channel weight
// quantization table (depthwise RMS error, the E3 extension).
func BenchmarkExtensionPerChannel(b *testing.B) {
	benchFigure(b, "ext3", benchEnv(b).ExtensionPerChannel)
}

// BenchmarkMuLayerInference times one end-to-end numeric μLayer inference
// (reduced GoogLeNet) through the public API — the closest thing to the
// runtime's own hot path.
func BenchmarkMuLayerInference(b *testing.B) {
	rt, err := mulayer.NewRuntime(mulayer.Exynos7420())
	if err != nil {
		b.Fatal(err)
	}
	m, err := mulayer.GoogLeNet(mulayer.ModelConfig{Numeric: true, InputHW: 32, WidthScale: 0.25, Classes: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Calibrate(mulayer.CalibrationSet(m, 2, 9)); err != nil {
		b.Fatal(err)
	}
	in := mulayer.RandomInput(m, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(m, in, mulayer.RunConfig{Mechanism: mulayer.MechMuLayer, Numeric: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferCoop times one warm inference of perfbench's infer-coop
// workload in process: GoogLeNet at half width on a 112² input with raw
// logits (seed 7), calibrated on 4 inputs, run under the full μLayer
// mechanism on real kernels on the Exynos 7420 at GOMAXPROCS=1, cycling
// through the same 16 seeded inputs. It is the profile `make
// profile-infer` reads kernel and glue shares from.
func BenchmarkInferCoop(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt, err := mulayer.NewRuntime(mulayer.Exynos7420())
	if err != nil {
		b.Fatal(err)
	}
	m, err := mulayer.GoogLeNet(mulayer.ModelConfig{Numeric: true, InputHW: 112, WidthScale: 0.5, NoSoftmax: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Calibrate(mulayer.CalibrationSet(m, 4, 100)); err != nil {
		b.Fatal(err)
	}
	inputs := make([]*mulayer.Tensor, 16)
	for i := range inputs {
		inputs[i] = mulayer.RandomInput(m, 5000+uint64(i))
	}
	rc := mulayer.RunConfig{Mechanism: mulayer.MechMuLayer, Numeric: true}
	if _, err := rt.Run(m, inputs[0], rc); err != nil { // fills the plan and packed-weight caches
		b.Fatal(err)
	}
	// The warm runs carry a profile label, so a profile's shares can
	// leave out the set-up above (make profile-infer's -tagfocus).
	b.ResetTimer()
	pprof.Do(context.Background(), pprof.Labels("infer", "warm"), func(context.Context) {
		for i := 0; i < b.N; i++ {
			if _, err := rt.Run(m, inputs[i%len(inputs)], rc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchServing times one request through the full serving path (HTTP →
// admission → scheduler → fused execution) under the given config.
func benchServing(b *testing.B, cfg server.Config) {
	cfg.SoCs = []server.SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}}
	s, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	body, _ := json.Marshal(server.InferRequest{Model: "lenet5", Mechanism: "mulayer"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkServing is the tracing-off serving baseline: the executor's
// trace hook is nil and the head sampler is disabled, so this must not
// regress when tracing features land.
func BenchmarkServing(b *testing.B) {
	benchServing(b, server.Config{})
}

// BenchmarkServingTraced measures the fully-traced path (every request
// sampled into the ring) for comparison against BenchmarkServing.
func BenchmarkServingTraced(b *testing.B) {
	benchServing(b, server.Config{TraceSample: 1})
}

// BenchmarkPlanOnly times plan construction (partitioner + predictor) for
// the full-size GoogLeNet.
func BenchmarkPlanOnly(b *testing.B) {
	rt, err := mulayer.NewRuntime(mulayer.Exynos7420())
	if err != nil {
		b.Fatal(err)
	}
	m, err := mulayer.GoogLeNet(mulayer.ModelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Plan(m, mulayer.RunConfig{Mechanism: mulayer.MechMuLayer}); err != nil {
			b.Fatal(err)
		}
	}
}
