package experiments

import (
	"fmt"
	"math"

	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// ExtensionPerChannel quantifies the per-channel weight-quantization
// extension: for every convolution of a reduced numeric MobileNet v1 (the
// depthwise-heavy network), the RMS weight representation error under the
// paper's per-tensor gemmlowp grids versus per-output-channel symmetric
// grids. Depthwise layers are the motivating case: their per-channel
// weight ranges vary enough that a shared grid wastes most of the 8 bits
// on some channels.
func (e *Env) ExtensionPerChannel() (*Table, error) {
	cfg := models.Config{Numeric: true, InputHW: 32, WidthScale: 0.5, Classes: 10, Seed: 21}
	pt, err := models.MobileNetV1(cfg)
	if err != nil {
		return nil, err
	}
	pcCfg := cfg
	pcCfg.PerChannelWeights = true
	pc, err := models.MobileNetV1(pcCfg)
	if err != nil {
		return nil, err
	}
	for _, m := range []*models.Model{pt, pc} {
		if err := m.Calibrate(calSet(m, 2)); err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID:     "Extension E3",
		Title:  "Per-channel weight quantization (MobileNet v1, reduced): RMS weight error",
		Header: []string{"layer", "kind", "per-tensor RMS", "per-channel RMS", "improvement"},
	}
	var dwGain, convGain []float64
	for i := 0; i < pt.Graph.Len(); i++ {
		a, okA := pt.Graph.Node(graph.NodeID(i)).Layer.(*nn.Conv2D)
		b, okB := pc.Graph.Node(graph.NodeID(i)).Layer.(*nn.Conv2D)
		if !okA || !okB {
			continue
		}
		ptRMS := weightRMS(a)
		pcRMS := weightRMS(b)
		gain := ptRMS / pcRMS
		if a.Kind() == nn.OpDepthwise {
			dwGain = append(dwGain, gain)
		} else {
			convGain = append(convGain, gain)
		}
		t.Rows = append(t.Rows, []string{
			a.LayerName, a.Kind().String(),
			fmt.Sprintf("%.5f", ptRMS), fmt.Sprintf("%.5f", pcRMS),
			fmt.Sprintf("%.2fx", gain),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("geomean RMS improvement: depthwise %.2fx, dense %.2fx", geomean(dwGain), geomean(convGain)),
		"per-channel grids share zero point 128, so the integer GEMM is unchanged; only requantization becomes per-channel")
	return t, nil
}

// weightRMS is the root-mean-square error of the layer's quantized weights
// against its float master weights.
func weightRMS(l *nn.Conv2D) float64 {
	qi := l.Quant()
	rows := l.W.Shape.C * l.W.Shape.H * l.W.Shape.W
	var sum float64
	for oc := 0; oc < l.OutC; oc++ {
		wp := qi.W
		if qi.PerChannel() {
			wp = qi.WPerChannel[oc]
		}
		for i := 0; i < rows; i++ {
			orig := float64(l.W.Data[oc*rows+i])
			q := wp.Quantize(l.W.Data[oc*rows+i])
			back := float64(wp.Dequantize(q))
			d := back - orig
			sum += float64(d * d)
		}
	}
	return math.Sqrt(sum / float64(l.OutC*rows))
}

// calSet builds deterministic calibration inputs for a model.
func calSet(m *models.Model, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		t := tensor.New(m.InputShape)
		t.FillRandom(uint64(5000+i), 1)
		out[i] = t
	}
	return out
}
