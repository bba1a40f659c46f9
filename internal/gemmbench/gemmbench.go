// Package gemmbench measures the packed/tiled GEMM kernels against the
// naive *Ref oracles on the matrix shapes the bundled model zoo
// actually produces, and records the trajectory as BENCH_gemm.json.
//
// Shapes are extracted from the spec-only graphs (no weights are
// allocated): every Conv2D lowers to an (OutC × InC·KH·KW × OutH·OutW)
// GEMM after im2col, and every FullyConnected is an (OutC × InFeatures
// × 1) GEMV. Per model, the largest conv-shaped and the largest
// FC-shaped problem (by MAC count) are benchmarked, so the sweep covers
// both regimes the tiled kernels must win on: wide GEMMs with operand
// reuse, and reuse-free GEMVs where only the pre-packed weight path
// pays off.
//
// All measurements are single-threaded (GOMAXPROCS(1)) so the numbers
// isolate kernel quality from parallel scaling.
package gemmbench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"mulayer/internal/gemm"
	"mulayer/internal/models"
	"mulayer/internal/nn"
)

// Shape is one GEMM problem extracted from the zoo.
type Shape struct {
	Model string `json:"model"`
	Layer string `json:"layer"`
	// Kind is "conv" (im2col-lowered, n = output plane) or "fc" (GEMV).
	Kind string `json:"kind"`
	M    int    `json:"m"`
	K    int    `json:"k"`
	N    int    `json:"n"`
	MACs int64  `json:"macs"`
}

// zooBuilders mirrors the golden-test model set.
func zooBuilders() []struct {
	name  string
	build func(models.Config) (*models.Model, error)
} {
	return []struct {
		name  string
		build func(models.Config) (*models.Model, error)
	}{
		{"lenet5", models.LeNet5},
		{"alexnet", models.AlexNet},
		{"vgg16", models.VGG16},
		{"googlenet", models.GoogLeNet},
		{"squeezenet", models.SqueezeNetV11},
		{"mobilenet", models.MobileNetV1},
		{"resnet18", models.ResNet18},
	}
}

// ZooShapes extracts the benchmark shapes from spec-only zoo graphs.
// inputHW and widthScale are forwarded to the model builders (0 keeps
// the defaults). Per model it keeps the largest conv and the largest fc
// problem by MACs; grouped (depthwise) convolutions are skipped because
// they lower to many tiny per-group GEMMs rather than one big one.
func ZooShapes(inputHW int, widthScale float64) ([]Shape, error) {
	var shapes []Shape
	seen := make(map[[4]interface{}]bool)
	for _, mb := range zooBuilders() {
		m, err := mb.build(models.Config{InputHW: inputHW, WidthScale: widthScale, Classes: 10})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mb.name, err)
		}
		dims, err := m.Graph.InferShapes()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mb.name, err)
		}
		var bestConv, bestFC *Shape
		order, err := m.Graph.Toposort()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mb.name, err)
		}
		for _, id := range order {
			node := m.Graph.Node(id)
			var s Shape
			switch l := node.Layer.(type) {
			case *nn.Conv2D:
				if l.Groups > 1 {
					continue
				}
				out := dims[node.ID]
				s = Shape{
					Model: mb.name, Layer: l.LayerName, Kind: "conv",
					M: l.OutC, K: l.InC * l.KH * l.KW, N: out.H * out.W,
				}
			case *nn.FullyConnected:
				s = Shape{
					Model: mb.name, Layer: l.LayerName, Kind: "fc",
					M: l.OutC, K: l.InFeatures, N: 1,
				}
			default:
				continue
			}
			s.MACs = int64(s.M) * int64(s.K) * int64(s.N)
			best := &bestConv
			if s.Kind == "fc" {
				best = &bestFC
			}
			if *best == nil || s.MACs > (*best).MACs {
				cp := s
				*best = &cp
			}
		}
		for _, b := range []*Shape{bestConv, bestFC} {
			if b == nil {
				continue
			}
			key := [4]interface{}{b.Kind, b.M, b.K, b.N}
			if seen[key] {
				continue
			}
			seen[key] = true
			shapes = append(shapes, *b)
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].Kind != shapes[j].Kind {
			return shapes[i].Kind < shapes[j].Kind
		}
		return shapes[i].MACs > shapes[j].MACs
	})
	if len(shapes) == 0 {
		return nil, fmt.Errorf("no GEMM shapes extracted from zoo")
	}
	return shapes, nil
}

// Result is the measurement for one shape.
type Result struct {
	Shape
	// QUInt8 path, GOP/s (2·m·k·n integer ops per multiply).
	QRefGOPS    float64 `json:"q_ref_gops"`
	QPackedGOPS float64 `json:"q_packed_gops"`
	QSpeedup    float64 `json:"q_speedup_packed"`
	// F32 path, GFLOP/s.
	F32RefGFLOPS    float64 `json:"f32_ref_gflops"`
	F32PackedGFLOPS float64 `json:"f32_packed_gflops"`
	F32Speedup      float64 `json:"f32_speedup_packed"`
}

// Config controls a benchmark run.
type Config struct {
	// InputHW/WidthScale shrink the zoo for smoke runs (0 = defaults).
	InputHW    int     `json:"input_hw,omitempty"`
	WidthScale float64 `json:"width_scale,omitempty"`
	// MinTime is the minimum measured duration per kernel per shape;
	// every kernel always runs at least once.
	MinTime time.Duration `json:"min_time_ns"`
}

// DefaultConfig is the committed-trajectory configuration.
func DefaultConfig() Config {
	return Config{MinTime: 200 * time.Millisecond}
}

// SmokeConfig is a CI-sized configuration: scaled-down shapes, single
// iteration per kernel.
func SmokeConfig() Config {
	return Config{InputHW: 64, WidthScale: 0.25, MinTime: 0}
}

// Report is the BENCH_gemm.json document.
type Report struct {
	Benchmark string `json:"benchmark"`
	Config    Config `json:"config"`
	GoMaxProc int    `json:"gomaxprocs"`
	// Tiles names the tile level the packed kernels ran (gemm.Tiles).
	Tiles   string   `json:"tiles"`
	Shapes  []Result `json:"shapes"`
	Summary Summary  `json:"summary"`
}

// Summary aggregates the speedups the ROADMAP tracks.
type Summary struct {
	QSpeedupConvMax float64 `json:"q_speedup_packed_conv_max"`
	QSpeedupFCMax   float64 `json:"q_speedup_packed_fc_max"`
	QSpeedupGeoMean float64 `json:"q_speedup_packed_geomean"`
	F32SpeedupGeo   float64 `json:"f32_speedup_packed_geomean"`
}

// measure runs fn in a loop until cfg.MinTime has elapsed (at least
// once) and returns achieved ops/sec for `ops` operations per call.
func measure(minTime time.Duration, ops int64, fn func()) float64 {
	fn() // warm up (and populate any lazily-built state)
	var iters int64
	start := time.Now()
	for {
		fn()
		iters++
		if el := time.Since(start); el >= minTime && iters >= 1 {
			return float64(ops*iters) / el.Seconds()
		}
	}
}

// Run benchmarks every zoo shape single-threaded and returns the report.
func Run(cfg Config) (*Report, error) {
	shapes, err := ZooShapes(cfg.InputHW, cfg.WidthScale)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	rep := &Report{
		Benchmark: "packed register-tiled GEMM vs naive reference kernels, single-thread, model-zoo shapes",
		Config:    cfg,
		GoMaxProc: 1,
		Tiles:     gemm.Tiles(),
	}
	rng := rand.New(rand.NewSource(42))
	for _, s := range shapes {
		m, k, n := s.M, s.K, s.N
		ops := 2 * s.MACs

		// Collect the previous shape's operands before timing: the
		// zoo's largest shapes leave ~100MB of garbage, and with a
		// bloated heap the packed path's per-call B-pack allocations
		// pay GC-assist costs the allocation-free Ref loops never see,
		// skewing small-shape measurements by up to 10x.
		runtime.GC()

		aq := make([]uint8, m*k)
		bq := make([]uint8, k*n)
		for i := range aq {
			aq[i] = uint8(rng.Intn(256))
		}
		for i := range bq {
			bq[i] = uint8(rng.Intn(256))
		}
		acc := make([]int32, m*n)
		const za, zb = 128, 3
		paq := gemm.PackAU8(aq, m, k)

		af := make([]float32, m*k)
		bf := make([]float32, k*n)
		for i := range af {
			af[i] = rng.Float32() - 0.5
		}
		for i := range bf {
			bf[i] = rng.Float32() - 0.5
		}
		cf := make([]float32, m*n)
		paf := gemm.PackAF32(af, m, k)

		// The packed kernels multiply the (k × n) operand as the patch
		// matrix of MatrixGeom, writing results back row-major as the
		// Ref loops do.
		g := gemm.MatrixGeom(k, n)
		r := Result{Shape: s}
		r.QRefGOPS = measure(cfg.MinTime, ops, func() {
			gemm.QGEMMRef(aq, bq, acc, m, k, n, za, zb)
		}) / 1e9
		r.QPackedGOPS = measure(cfg.MinTime, ops, func() {
			gemm.ConvQ(paq, bq, g, za, zb, func(i, j0 int, row []int32) { copy(acc[i*n+j0:], row) })
		}) / 1e9
		r.QSpeedup = r.QPackedGOPS / r.QRefGOPS
		r.F32RefGFLOPS = measure(cfg.MinTime, ops, func() {
			gemm.F32Ref(af, bf, cf, m, k, n)
		}) / 1e9
		r.F32PackedGFLOPS = measure(cfg.MinTime, ops, func() {
			gemm.ConvF32(paf, bf, g, func(i, j0 int, row []float32) { copy(cf[i*n+j0:], row) })
		}) / 1e9
		r.F32Speedup = r.F32PackedGFLOPS / r.F32RefGFLOPS
		rep.Shapes = append(rep.Shapes, r)
	}
	rep.Summary = summarize(rep.Shapes)
	return rep, nil
}

func summarize(rs []Result) Summary {
	var s Summary
	logQ, logF := 0.0, 0.0
	for _, r := range rs {
		if r.Kind == "conv" && r.QSpeedup > s.QSpeedupConvMax {
			s.QSpeedupConvMax = r.QSpeedup
		}
		if r.Kind == "fc" && r.QSpeedup > s.QSpeedupFCMax {
			s.QSpeedupFCMax = r.QSpeedup
		}
		logQ += math.Log(r.QSpeedup)
		logF += math.Log(r.F32Speedup)
	}
	if len(rs) > 0 {
		s.QSpeedupGeoMean = math.Exp(logQ / float64(len(rs)))
		s.F32SpeedupGeo = math.Exp(logF / float64(len(rs)))
	}
	return s
}

// Validate checks a BENCH_gemm.json document for structural sanity: at
// least one conv-shaped and one fc-shaped entry, a named tile level,
// positive throughputs and dimensions throughout, and a consistent
// summary.
func Validate(data []byte) error {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if rep.Benchmark == "" {
		return fmt.Errorf("missing benchmark field")
	}
	if rep.GoMaxProc != 1 {
		return fmt.Errorf("gomaxprocs = %d, want single-thread measurements", rep.GoMaxProc)
	}
	switch rep.Tiles {
	case "avx2", "sse2", "go":
	default:
		return fmt.Errorf("tiles = %q, want avx2, sse2 or go", rep.Tiles)
	}
	if len(rep.Shapes) == 0 {
		return fmt.Errorf("no shapes recorded")
	}
	kinds := map[string]int{}
	for i, r := range rep.Shapes {
		kinds[r.Kind]++
		if r.Kind != "conv" && r.Kind != "fc" {
			return fmt.Errorf("shape %d: unknown kind %q", i, r.Kind)
		}
		if r.M <= 0 || r.K <= 0 || r.N <= 0 {
			return fmt.Errorf("shape %d (%s/%s): non-positive dims %dx%dx%d", i, r.Model, r.Layer, r.M, r.K, r.N)
		}
		if r.Kind == "fc" && r.N != 1 {
			return fmt.Errorf("shape %d (%s/%s): fc with n=%d", i, r.Model, r.Layer, r.N)
		}
		for name, v := range map[string]float64{
			"q_ref_gops": r.QRefGOPS, "q_packed_gops": r.QPackedGOPS,
			"f32_ref_gflops": r.F32RefGFLOPS, "f32_packed_gflops": r.F32PackedGFLOPS,
			"q_speedup_packed": r.QSpeedup, "f32_speedup_packed": r.F32Speedup,
		} {
			if !(v > 0) {
				return fmt.Errorf("shape %d (%s/%s): %s = %v, want > 0", i, r.Model, r.Layer, name, v)
			}
		}
	}
	if kinds["conv"] == 0 || kinds["fc"] == 0 {
		return fmt.Errorf("need both conv and fc shapes, got %v", kinds)
	}
	if !(rep.Summary.QSpeedupConvMax > 0) || !(rep.Summary.QSpeedupFCMax > 0) {
		return fmt.Errorf("summary speedups missing: %+v", rep.Summary)
	}
	return nil
}
