package exec

import (
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/tensor"
)

// batchPlans builds the policy plan set for a spec model.
func batchPlans(t *testing.T, m *models.Model) BatchPlans {
	t.Helper()
	cpuO := partition.SingleProcessor(testSoC, testPred, device.CPU, tensor.QUInt8)
	gpuO := partition.SingleProcessor(testSoC, testPred, device.GPU, tensor.F16)
	coopO := partition.MuLayer(testSoC, testPred)
	cpuP, err := partition.Build(m.Graph, cpuO)
	if err != nil {
		t.Fatal(err)
	}
	gpuP, err := partition.Build(m.Graph, gpuO)
	if err != nil {
		t.Fatal(err)
	}
	coopP, err := partition.Build(m.Graph, coopO)
	if err != nil {
		t.Fatal(err)
	}
	return BatchPlans{
		CPU: cpuP, GPU: gpuP, Coop: coopP,
		CPUPipe: cpuO.Pipe, GPUPipe: gpuO.Pipe, CoopPipe: coopO.Pipe,
	}
}

func batchCfg() Config {
	return Config{SoC: testSoC, AsyncIssue: true, ZeroCopy: true}
}

func TestBatchTaxonomyFigure4(t *testing.T) {
	// The §2.2 taxonomy, quantified: network-to-processor mapping improves
	// throughput over a single processor but not single-input latency;
	// μLayer improves both.
	m, err := models.GoogLeNet(models.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plans := batchPlans(t, m)
	const n = 8
	run := func(p BatchPolicy) *BatchResult {
		r, err := RunBatch(m.Graph, p, plans, n, batchCfg())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		return r
	}
	cpu := run(BatchSingleCPU)
	gpu := run(BatchSingleGPU)
	n2p := run(BatchNetworkToProcessor)
	mu := run(BatchMuLayer)

	bestSingle := cpu
	if gpu.ThroughputIPS > bestSingle.ThroughputIPS {
		bestSingle = gpu
	}
	if n2p.ThroughputIPS <= bestSingle.ThroughputIPS {
		t.Errorf("network-to-processor throughput %.2f must beat best single %.2f",
			n2p.ThroughputIPS, bestSingle.ThroughputIPS)
	}
	// First-input latency under N2P is a single-processor run: the mean
	// per-input latency cannot drop below the faster processor's
	// single-inference time.
	singleInferCPU := cpu.Makespan / n
	singleInferGPU := gpu.Makespan / n
	fastest := singleInferCPU
	if singleInferGPU < fastest {
		fastest = singleInferGPU
	}
	muSingle := mu.Makespan / n
	if muSingle >= fastest {
		t.Errorf("μLayer per-input time %v must beat the fastest single processor %v", muSingle, fastest)
	}
	if mu.ThroughputIPS <= bestSingle.ThroughputIPS {
		t.Errorf("μLayer throughput %.2f must beat best single %.2f", mu.ThroughputIPS, bestSingle.ThroughputIPS)
	}
	// Sanity: mean ≤ max, makespan ≥ max single latency.
	for _, r := range []*BatchResult{cpu, gpu, n2p, mu} {
		if r.MeanLatency > r.MaxLatency {
			t.Error("mean latency above max")
		}
		if r.Makespan < r.MaxLatency {
			t.Error("makespan below max latency")
		}
		if err := r.Timeline.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestBatchNetworkToProcessorOverlaps(t *testing.T) {
	m, _ := models.AlexNet(models.Config{})
	plans := batchPlans(t, m)
	two, err := RunBatch(m.Graph, BatchNetworkToProcessor, plans, 2, batchCfg())
	if err != nil {
		t.Fatal(err)
	}
	cpuOne, err := RunBatch(m.Graph, BatchSingleCPU, plans, 1, batchCfg())
	if err != nil {
		t.Fatal(err)
	}
	gpuOne, err := RunBatch(m.Graph, BatchSingleGPU, plans, 1, batchCfg())
	if err != nil {
		t.Fatal(err)
	}
	slower := cpuOne.Makespan
	if gpuOne.Makespan > slower {
		slower = gpuOne.Makespan
	}
	// Two alternating inputs run concurrently: the batch finishes with the
	// slower of the two single runs (plus negligible interaction), not
	// their sum.
	if two.Makespan > slower+slower/20 {
		t.Fatalf("alternating batch %v did not overlap (single runs %v / %v)",
			two.Makespan, cpuOne.Makespan, gpuOne.Makespan)
	}
}

func TestBatchErrors(t *testing.T) {
	m, _ := models.LeNet5(models.Config{})
	plans := batchPlans(t, m)
	if _, err := RunBatch(m.Graph, BatchMuLayer, plans, 0, batchCfg()); err == nil {
		t.Error("zero batch must fail")
	}
	cfg := batchCfg()
	cfg.Numeric = true
	if _, err := RunBatch(m.Graph, BatchMuLayer, plans, 1, cfg); err == nil {
		t.Error("numeric batch must fail")
	}
	if _, err := RunBatch(m.Graph, BatchPolicy(9), plans, 1, batchCfg()); err == nil {
		t.Error("unknown policy must fail")
	}
	if _, err := RunBatch(m.Graph, BatchMuLayer, BatchPlans{}, 1, batchCfg()); err == nil {
		t.Error("missing plan must fail")
	}
	if _, err := RunBatch(m.Graph, BatchMuLayer, plans, 1, Config{}); err == nil {
		t.Error("missing SoC must fail")
	}
}

func TestBatchPolicyStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []BatchPolicy{BatchSingleCPU, BatchSingleGPU, BatchNetworkToProcessor, BatchMuLayer} {
		s := p.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate policy string %q", s)
		}
		seen[s] = true
	}
}
