package experiments

import (
	"fmt"

	"mulayer/internal/device"
	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/partition"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// ExtensionThroughput quantifies the §2.2 / Figure 4 execution-mechanism
// taxonomy on a batch of independent inputs: network-to-processor mapping
// (Figure 4a) improves throughput but leaves single-input latency at
// single-processor levels, while μLayer (Figure 4c) improves both. The
// paper states this qualitatively; this table is the quantified
// extension.
func (e *Env) ExtensionThroughput(batch int) (*Table, error) {
	if batch <= 0 {
		batch = 8
	}
	t := &Table{
		ID:    "Extension E1",
		Title: fmt.Sprintf("Multi-input execution taxonomy (Figure 4), batch of %d", batch),
		Header: []string{
			"NN", "SoC", "policy", "throughput(inf/s)", "single-input(ms)", "mean latency(ms)", "max latency(ms)",
		},
	}
	for _, s := range e.SoCs {
		pred := e.Pred(s)
		for _, m := range []*models.Model{e.specs[0], e.specs[2]} { // GoogLeNet, VGG-16
			plans, err := buildBatchPlans(m, s, pred)
			if err != nil {
				return nil, err
			}
			for _, pol := range []exec.BatchPolicy{
				exec.BatchSingleCPU, exec.BatchSingleGPU,
				exec.BatchNetworkToProcessor, exec.BatchMuLayer,
			} {
				cfg := exec.Config{SoC: s, AsyncIssue: true, ZeroCopy: true}
				r, err := exec.RunBatch(m.Graph, pol, plans, batch, cfg)
				if err != nil {
					return nil, err
				}
				// Single-input latency: a batch of one (the §2.2 argument —
				// network-to-processor mapping cannot improve it).
				one, err := exec.RunBatch(m.Graph, pol, plans, 1, cfg)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					m.Name, s.Name, pol.String(),
					fmt.Sprintf("%.2f", r.ThroughputIPS),
					ms(one.Makespan), ms(r.MeanLatency), ms(r.MaxLatency),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"network-to-processor lifts throughput by overlapping inputs but each input is still single-processor-bound (§2.2)",
		"uLayer lifts throughput and single-input latency simultaneously (Figure 4c); at batch saturation its serial drain trades some mean completion time for that single-input win")
	return t, nil
}

// buildBatchPlans assembles the per-policy plans: single-CPU QUInt8,
// single-GPU F16 (each processor's preferred type), and the μLayer plan.
func buildBatchPlans(m *models.Model, s *soc.SoC, pred *profile.Predictor) (exec.BatchPlans, error) {
	cpuO := partition.SingleProcessor(s, pred, device.CPU, tensor.QUInt8)
	gpuO := partition.SingleProcessor(s, pred, device.GPU, tensor.F16)
	coopO := partition.MuLayer(s, pred)
	cpuP, err := partition.Build(m.Graph, cpuO)
	if err != nil {
		return exec.BatchPlans{}, err
	}
	gpuP, err := partition.Build(m.Graph, gpuO)
	if err != nil {
		return exec.BatchPlans{}, err
	}
	coopP, err := partition.Build(m.Graph, coopO)
	if err != nil {
		return exec.BatchPlans{}, err
	}
	return exec.BatchPlans{
		CPU: cpuP, GPU: gpuP, Coop: coopP,
		CPUPipe: cpuO.Pipe, GPUPipe: gpuO.Pipe, CoopPipe: coopO.Pipe,
	}, nil
}
