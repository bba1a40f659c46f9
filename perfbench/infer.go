package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/models"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// The infer-coop model: a reduced numeric GoogLeNet (half width, 112²
// input, raw logits) small enough for ~100 pure-Go inferences a run.
var inferModelConfig = models.Config{Numeric: true, InputHW: 112, WidthScale: 0.5, NoSoftmax: true, Seed: 7}

// inferRC is the paper's full mechanism on real kernels.
var inferRC = core.RunConfig{Mechanism: core.MechMuLayer, Numeric: true}

const (
	// inferPool is the size of the fixed input set the seed orders.
	inferPool = 16
	// inferInputSeed seeds input i of the pool as inferInputSeed+i.
	inferInputSeed = 5000
)

// golden holds the committed output digests of the input pool; the
// tiled-vs-reference exactness of the kernels makes them bit-exact on
// every host. Regenerate with `go run . --write-golden` in this directory.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Model   string   `json:"model"`
	Digests []string `json:"digests"`
}

func loadGolden() ([]string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.Digests) != inferPool {
		return nil, fmt.Errorf("golden.json: %d digests, want %d", len(g.Digests), inferPool)
	}
	return g.Digests, nil
}

func inferInput(m *models.Model, i int) *tensor.Tensor {
	t := tensor.New(m.InputShape)
	t.FillRandom(uint64(inferInputSeed+i), 1)
	return t
}

// digest is a SHA-256 prefix over an output's float32 bit patterns.
func digest(t *tensor.Tensor) string {
	if t == nil {
		return "nil"
	}
	h := sha256.New()
	var b [4]byte
	for _, v := range t.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// inferSys is one set-up infer-coop system: runtime, calibrated model.
type inferSys struct {
	rt *core.Runtime
	m  *models.Model
}

// setupInfer profiles the SoC, builds and calibrates the model, and
// serves the first inference (which also fills the packed-weight caches).
func setupInfer(first int) (*inferSys, error) {
	rt, err := core.NewRuntime(soc.Exynos7420())
	if err != nil {
		return nil, err
	}
	m, err := models.GoogLeNet(inferModelConfig)
	if err != nil {
		return nil, err
	}
	calib := make([]*tensor.Tensor, 4)
	for i := range calib {
		calib[i] = tensor.New(m.InputShape)
		calib[i].FillRandom(100+uint64(i)*101, 1)
	}
	if err := m.Calibrate(calib); err != nil {
		return nil, err
	}
	if _, err := rt.Run(m, inferInput(m, first), inferRC); err != nil {
		return nil, err
	}
	return &inferSys{rt: rt, m: m}, nil
}

// seededOrder is the seed's permutation of the input pool.
func seededOrder(seed uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, 0x6d756c61)).Perm(n)
}

func runInferCoop(o opts, log io.Writer) (result, error) {
	golden, err := loadGolden()
	if err != nil {
		return result{}, err
	}
	order := seededOrder(o.seed, inferPool)
	sys, setupS, err := medianSetup(o.setups, func() (*inferSys, error) { return setupInfer(order[0]) }, func(*inferSys) {})
	if err != nil {
		return result{}, err
	}
	inputs := make([]*tensor.Tensor, inferPool)
	for i := range inputs {
		inputs[i] = inferInput(sys.m, i)
	}
	op := func(i int) outcome {
		idx := order[i%inferPool]
		start := time.Now()
		res, err := sys.rt.Run(sys.m, inputs[idx], inferRC)
		out := outcome{start: start, lat: time.Since(start)}
		if err != nil {
			fmt.Fprintf(log, "infer-coop op %d: %v\n", i, err)
			return out
		}
		if got := digest(res.Output); got != golden[idx] {
			fmt.Fprintf(log, "infer-coop op %d: input %d output digest %s, golden %s\n", i, idx, got, golden[idx])
			return out
		}
		out.ok, out.rep = true, res.Report
		out.simLatMS, out.simEnMJ = ms(res.Report.Latency), res.Report.TotalJ()*1e3
		return out
	}
	untraced := closedLoop(o, op)
	if !o.trace {
		return e2eResult(untraced, setupS, sys), nil
	}

	tr := newTracer()
	shadow := newShadow(sys.m)
	traced := closedLoop(o, func(i int) outcome {
		idx := order[i%inferPool]
		start := time.Now()
		plan, err := sys.rt.Plan(sys.m, inferRC)
		tr.record("partition.plan", "", i, start)
		if err != nil {
			fmt.Fprintf(log, "infer-coop op %d: plan: %v\n", i, err)
			return outcome{}
		}
		out := op(i)
		tr.add("core.run", "", i, out.start, out.lat)
		if !out.ok {
			return out
		}
		// The shadow pass runs outside the latency window: it replays the
		// plan's kernel calls one by one to time each nn layer method.
		start = time.Now()
		got, err := shadow.run(plan, inputs[idx], tr, i)
		tr.record("shadow", "", i, start)
		if err != nil || digest(got) != golden[idx] {
			fmt.Fprintf(log, "infer-coop op %d: shadow pass disagrees with the executor (%v)\n", i, err)
			out.ok = false
		}
		return out
	})
	if err := tr.write(o.out, o.workload, o.seed); err != nil {
		return result{}, err
	}
	ops := traced.attempted
	plan, err := sys.rt.Plan(sys.m, inferRC)
	if err != nil {
		return result{}, err
	}
	sum := plan.Summary()
	nnMS := 0.0
	for _, n := range []string{"nn.conv.cpu", "nn.conv.gpu", "nn.fc.cpu", "nn.fc.gpu", "nn.other"} {
		nnMS += tr.perOpMS(n, ops)
	}
	vals := map[string]float64{
		"partition.plan_ms":      tr.meanMS("partition.plan"),
		"partition.split_layers": float64(sum.SplitLayers),
		"partition.mean_p":       sum.MeanP,
		"exec.self_ms":           tr.meanMS("core.run") - tr.meanMS("partition.plan") - nnMS,
		"nn.conv_cpu_ms":         tr.perOpMS("nn.conv.cpu", ops),
		"nn.conv_gpu_ms":         tr.perOpMS("nn.conv.gpu", ops),
		"nn.fc_cpu_ms":           tr.perOpMS("nn.fc.cpu", ops),
		"nn.fc_gpu_ms":           tr.perOpMS("nn.fc.gpu", ops),
		"nn.other_ms":            tr.perOpMS("nn.other", ops),
		"nn.alloc_kb":            shadow.allocKB(),
		"loadgen.wall_p50_ms":    percentile(untraced.lat, 0.5),
		"host.calib_ms":          median(untraced.calMS),
		"loadgen.late_ms_p90":    percentile(traced.lateMS, 0.9),
		"trace.overhead_frac":    traced.p50()/untraced.p50() - 1,
	}
	addReportMetrics(vals, traced)
	for k, v := range profileGEMM(sys.m) {
		vals[k] = v
	}
	return traced.result(layerMetrics(vals)), nil
}

// writeGolden recomputes the output digests of the input pool.
func writeGolden(path string) error {
	sys, err := setupInfer(0)
	if err != nil {
		return err
	}
	g := goldenFile{Model: fmt.Sprintf("%s %+v mechanism=%v", sys.m.Name, inferModelConfig, inferRC.Mechanism)}
	for i := 0; i < inferPool; i++ {
		res, err := sys.rt.Run(sys.m, inferInput(sys.m, i), inferRC)
		if err != nil {
			return err
		}
		g.Digests = append(g.Digests, digest(res.Output))
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
