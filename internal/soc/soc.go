// Package soc assembles device models into the two systems-on-chip the
// paper evaluates (§7.1): Samsung Exynos 7420 (Galaxy Note 5, "high-end")
// and Samsung Exynos 7880 (Galaxy A5, "mid-range"). It also owns the
// SoC-level energy model: DRAM energy per byte plus a static (uncore,
// rails, interconnect) power integrated over the inference makespan.
package soc

import (
	"time"

	"mulayer/internal/device"
	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// SoC is one modeled system-on-chip.
type SoC struct {
	Name string
	CPU  *device.Processor
	GPU  *device.Processor
	// NPU is the optional neural processing unit of the §8.3 extension;
	// nil on the paper's two evaluation SoCs.
	NPU *device.Processor

	// DRAMPicoJPerByte is the energy of moving one byte to/from DRAM.
	// Storing tensors as QUInt8 instead of F32 cuts this term 4×, one of
	// the two energy effects §7.3 credits.
	DRAMPicoJPerByte float64

	// StaticPowerW is the uncore/rail power drawn for the duration of the
	// inference. μLayer's latency reduction converts directly into static
	// energy savings.
	StaticPowerW float64

	// SyncOverhead is the per-cooperative-layer CPU↔GPU synchronization
	// cost with zero-copy shared memory (asynchronous clEnqueueMapBuffer /
	// unmap bookkeeping plus the merge barrier, §6).
	SyncOverhead time.Duration

	// SyncBWGBs is the effective rate of the cache-maintenance traffic a
	// zero-copy synchronization performs over the shared buffers (Midgard
	// map/unmap cleans and invalidates CPU cache lines): the sync cost is
	// SyncOverhead + coherentBytes/SyncBWGBs. This byte-proportional term
	// is the "high CPU-GPU synchronization overhead" §5 blames for
	// channel-wise distribution underperforming on divergent modules.
	SyncBWGBs float64

	// CopySyncOverhead is the fixed part of the copy-based alternative
	// (no zero-copy), used by the ablation benchmarks; the bytes
	// themselves are charged at memory bandwidth on top.
	CopySyncOverhead time.Duration
}

// SyncCost returns the latency of one zero-copy CPU-GPU synchronization
// over coherentBytes of shared buffers.
func (s *SoC) SyncCost(coherentBytes int64) time.Duration {
	t := float64(coherentBytes) / (s.SyncBWGBs * 1e9)
	return s.SyncOverhead + time.Duration(t*float64(time.Second))
}

// Processors returns the SoC's processors, CPU first, NPU (if any) last.
func (s *SoC) Processors() []*device.Processor {
	ps := []*device.Processor{s.CPU, s.GPU}
	if s.NPU != nil {
		ps = append(ps, s.NPU)
	}
	return ps
}

// Validate checks every processor model.
func (s *SoC) Validate() error {
	for _, p := range s.Processors() {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// effByKind is shared across processors: convolutions hit peak, GEMV-shaped
// FC layers are memory-starved, pooling and elementwise ops barely compute.
func effByKind(fc float64) map[nn.OpKind]float64 {
	return map[nn.OpKind]float64{
		nn.OpConv:      1.0,
		nn.OpDepthwise: 0.55, // low arithmetic intensity
		nn.OpFC:        fc,
		nn.OpMaxPool:   0.30,
		nn.OpAvgPool:   0.30,
		nn.OpReLU:      0.25,
		nn.OpLRN:       0.35,
		nn.OpConcat:    1.0, // pure data movement; MACs are 0
		nn.OpSoftmax:   0.25,
		nn.OpAdd:       0.25, // elementwise, bandwidth-bound
	}
}

// Classes maps each SoC class's command-line and API name to its builder:
// "high" and "mid" are the paper's two SoCs, "npu" the §8.3 extension.
var Classes = map[string]func() *SoC{
	"high": Exynos7420,
	"mid":  Exynos7880,
	"npu":  Exynos7420NPU,
}

// Exynos7420 models the high-end SoC: four Cortex-A57 cores at 2.1 GHz
// (the big cluster ACL schedules NN work onto) plus an eight-core
// Mali-T760 at 700 MHz. Calibration targets: GPU ≈ 1.40× CPU at F32
// (Figure 5a); CPU QUInt8 ≈ 2.2× its F32, CPU F16 ≈ F32 (emulated);
// GPU F16 ≈ 1.9× its F32, GPU QUInt8 ≈ 0.9× its F32 (Figure 8).
func Exynos7420() *SoC {
	cpu := &device.Processor{
		Name: "Exynos7420-CPU(4xA57@2.1GHz)", Type: device.CPU,
		Cores: 4, FreqGHz: 2.1,
		// Sustained ACL/gemmlowp-class throughput, not peak NEON: the
		// absolute scale is calibrated so GoogLeNet's first Inception
		// module takes ~13 ms CPU-only in QUInt8, matching Figure 12.
		MACsPerCycle: map[tensor.DataType]float64{
			tensor.F32:    0.55, // ~4.6 GMAC/s sustained
			tensor.F16:    0.50, // no vector F16: emulated via F32, minus conversions
			tensor.QUInt8: 1.21, // 2.2× F32: wide u8 lanes minus requantization
		},
		EffByKind:        effByKind(0.35),
		MemBWGBs:         12.0,
		CacheBytes:       2 << 20, // 2 MiB L2
		CacheSpillFactor: 0.78,
		LaunchOverhead:   8 * time.Microsecond,
		ConvertPenalty:   1.05,
		SplitChannelKnee: 4,
		PicoJPerMAC: map[tensor.DataType]float64{
			tensor.F32:    180,
			tensor.F16:    180, // emulated: same switching activity
			tensor.QUInt8: 70,
		},
		ActivePowerW: 3.5,
	}
	gpu := &device.Processor{
		Name: "Exynos7420-GPU(Mali-T760MP8@700MHz)", Type: device.GPU,
		Cores: 8, FreqGHz: 0.7,
		MACsPerCycle: map[tensor.DataType]float64{
			tensor.F32:    1.155, // calibrated: 1.40× the CPU's F32 throughput
			tensor.F16:    2.195, // 1.9× F32: native half ALUs
			tensor.QUInt8: 0.578, // 0.5× F32: 32-bit accumulation halves concurrency (§4.1)
		},
		EffByKind:        effByKind(0.30),
		MemBWGBs:         12.0,
		CacheBytes:       512 << 10,
		CacheSpillFactor: 0.80,
		LaunchOverhead:   120 * time.Microsecond, // Midgard OpenCL command issue
		ConvertPenalty:   1.05,
		SplitChannelKnee: 12, // many-core occupancy starves on narrow slices
		PicoJPerMAC: map[tensor.DataType]float64{
			tensor.F32:    120,
			tensor.F16:    60,
			tensor.QUInt8: 110,
		},
		ActivePowerW: 2.4,
	}
	return &SoC{
		Name: "Exynos 7420 (high-end)",
		CPU:  cpu, GPU: gpu,
		DRAMPicoJPerByte: 80,
		StaticPowerW:     1.6,
		SyncOverhead:     50 * time.Microsecond,
		SyncBWGBs:        0.5,
		CopySyncOverhead: 400 * time.Microsecond,
	}
}

// Exynos7880 models the mid-range SoC: eight Cortex-A53 cores at 1.9 GHz
// and a three-core Mali-T830 at 962 MHz. Calibration target: the CPU
// achieves 26.1% lower latency than the GPU at F32 (§3.1), i.e. GPU
// throughput ≈ 0.74× the CPU's.
func Exynos7880() *SoC {
	cpu := &device.Processor{
		Name: "Exynos7880-CPU(8xA53@1.9GHz)", Type: device.CPU,
		Cores: 8, FreqGHz: 1.9,
		MACsPerCycle: map[tensor.DataType]float64{
			tensor.F32:    0.25, // 64-bit NEON datapath, in-order pipeline
			tensor.F16:    0.22,
			tensor.QUInt8: 0.55,
		},
		EffByKind:        effByKind(0.35),
		MemBWGBs:         6.5,
		CacheBytes:       1 << 20,
		CacheSpillFactor: 0.78,
		LaunchOverhead:   10 * time.Microsecond,
		ConvertPenalty:   1.05,
		SplitChannelKnee: 4,
		PicoJPerMAC: map[tensor.DataType]float64{
			tensor.F32:    150,
			tensor.F16:    150,
			tensor.QUInt8: 60,
		},
		ActivePowerW: 1.8,
	}
	gpu := &device.Processor{
		Name: "Exynos7880-GPU(Mali-T830MP3@962MHz)", Type: device.GPU,
		Cores: 3, FreqGHz: 0.962,
		MACsPerCycle: map[tensor.DataType]float64{
			tensor.F32:    0.973, // calibrated: 0.739× the CPU's F32 throughput
			tensor.F16:    1.849,
			tensor.QUInt8: 0.487,
		},
		EffByKind:        effByKind(0.30),
		MemBWGBs:         6.5,
		CacheBytes:       256 << 10,
		CacheSpillFactor: 0.80,
		LaunchOverhead:   150 * time.Microsecond,
		ConvertPenalty:   1.05,
		SplitChannelKnee: 7, // three cores fill up sooner than the MP8
		PicoJPerMAC: map[tensor.DataType]float64{
			tensor.F32:    130,
			tensor.F16:    65,
			tensor.QUInt8: 120,
		},
		ActivePowerW: 1.4,
	}
	return &SoC{
		Name: "Exynos 7880 (mid-range)",
		CPU:  cpu, GPU: gpu,
		DRAMPicoJPerByte: 100,
		StaticPowerW:     1.1,
		SyncOverhead:     60 * time.Microsecond,
		SyncBWGBs:        0.7,
		CopySyncOverhead: 500 * time.Microsecond,
	}
}

// All returns both evaluated SoCs, high-end first (paper order).
func All() []*SoC {
	return []*SoC{Exynos7420(), Exynos7880()}
}
