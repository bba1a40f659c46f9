package partition

import (
	"mulayer/internal/device"
	"mulayer/internal/profile"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// The preset option builders below correspond to the execution mechanisms
// the paper evaluates (§7.2): single-processor execution with each data
// type, the state-of-the-art layer-to-processor mapping, and μLayer with
// its optimizations applied incrementally (Figure 17's ablation).

// SingleProcessor runs the whole network on one processor with a uniform
// data type (Figures 6, 8, 16).
func SingleProcessor(s *soc.SoC, pred *profile.Predictor, p device.Type, dt tensor.DataType) Options {
	return Options{
		SoC: s, Pred: pred, Pipe: Uniform(dt),
		AllowCPU: p == device.CPU, AllowGPU: p == device.GPU,
	}
}

// LayerToProcessor is the state-of-the-art baseline (§2.2): each layer
// runs whole on whichever processor the predictor scores faster, with
// both processors computing QUInt8 ("the mechanism using QUInt8", §7.2).
// Because mobile GPUs dislike QUInt8 (Figure 8), the mechanism leans
// heavily on the CPU — which is precisely the single-processor bound
// μLayer breaks. Consistently with the paper, the one configuration where
// a single-processor mechanism beats this baseline is VGG-16 on the
// high-end SoC (GPU+F16).
func LayerToProcessor(s *soc.SoC, pred *profile.Predictor) Options {
	return Options{
		SoC: s, Pred: pred, Pipe: Uniform(tensor.QUInt8),
		AllowCPU: true, AllowGPU: true,
	}
}

// ChannelDistOnly is μLayer's first increment: channel-wise workload
// distribution with both processors still computing QUInt8. The split
// ratio spans the full 0 ≤ p ≤ 1 range of §6 — the interior grid
// {0.25, 0.5, 0.75} plus the degenerate single-processor ratios — so a
// layer too small to amortize the cooperative synchronization stays on
// one processor.
func ChannelDistOnly(s *soc.SoC, pred *profile.Predictor) Options {
	return Options{
		SoC: s, Pred: pred, Pipe: Uniform(tensor.QUInt8),
		AllowCPU: true, AllowGPU: true, AllowSplit: true, Grid: DefaultGrid,
		SingleFallback: true,
	}
}

// ChannelDistProcQuant adds processor-friendly quantization: CPU QUInt8,
// GPU F16 with on-the-fly conversion.
func ChannelDistProcQuant(s *soc.SoC, pred *profile.Predictor) Options {
	return Options{
		SoC: s, Pred: pred, Pipe: ProcessorFriendly(),
		AllowCPU: true, AllowGPU: true, AllowSplit: true, Grid: DefaultGrid,
		SingleFallback: true,
	}
}

// MuLayer is the complete system: channel-wise distribution,
// processor-friendly quantization, and branch distribution.
func MuLayer(s *soc.SoC, pred *profile.Predictor) Options {
	o := ChannelDistProcQuant(s, pred)
	o.BranchDist = true
	return o
}

// MuLayerNPU extends the complete system with the SoC's NPU — the §8.3
// extension: three-way channel distribution (NPU computing QUInt8, its
// native scheme), and three-way branch assignment.
func MuLayerNPU(s *soc.SoC, pred *profile.Predictor) Options {
	o := MuLayer(s, pred)
	o.AllowNPU = true
	return o
}

// NPUOnly runs the whole network on the NPU with QUInt8 — the
// accelerator-only baseline of the §8.3 experiments.
func NPUOnly(s *soc.SoC, pred *profile.Predictor) Options {
	return Options{
		SoC: s, Pred: pred, Pipe: ProcessorFriendly(),
		NPUOnly: true, AllowNPU: true,
	}
}
