// Package device models the heterogeneous processors of a mobile SoC for
// μLayer's latency and energy simulation.
//
// The paper measures real Exynos parts; a pure-Go reproduction has neither
// NEON nor a Mali GPU, so this package substitutes an analytic cost model
// (see DESIGN.md §2): each processor has a peak multiply-accumulate
// throughput per data type, per-op-class efficiency factors, a
// working-set knee at its last-level cache, and a memory bandwidth; a
// kernel's time is the maximum of its compute time and its memory time
// plus dispatch overhead charged by the executor. Dynamic energy is
// work-based (picojoules per MAC per data type plus DRAM energy per byte),
// which makes it distribution-invariant — exactly the property that lets
// μLayer convert a latency win into an energy win via the SoC's static
// power (§7.3).
//
// The model is calibrated so the paper's measured *ratios* hold: on the
// high-end part the GPU outruns the CPU by ~1.4× at F32 (Figure 5), the
// CPU gains ~2.2× from QUInt8 while F16 does nothing for it, and the GPU
// gains ~1.9× from F16 while QUInt8 slightly hurts it (Figure 8); on the
// mid-range part the CPU is ~26% faster than the GPU (§3.1).
package device

import (
	"fmt"
	"strings"
	"time"

	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// Type distinguishes processor classes.
type Type int

// Processor classes on the modeled SoCs.
const (
	CPU Type = iota
	GPU
	NPU
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case NPU:
		return "NPU"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Set is a set of processor classes, class t at bit 1<<t: the processors
// a tensor is coherent on, or the processors a degraded device must plan
// around.
type Set uint8

// Bit returns the set holding only t.
func (t Type) Bit() Set { return 1 << t }

// Has reports whether the set contains t.
func (s Set) Has(t Type) bool { return s&t.Bit() != 0 }

// String implements fmt.Stringer ("cpu+gpu", "none").
func (s Set) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for t := CPU; t <= NPU; t++ {
		if s.Has(t) {
			parts = append(parts, strings.ToLower(t.String()))
		}
	}
	return strings.Join(parts, "+")
}

// Processor is one compute device of a SoC.
type Processor struct {
	Name    string
	Type    Type
	Cores   int
	FreqGHz float64

	// MACsPerCycle is the effective multiply-accumulates per cycle per
	// core for each compute data type (vector width × issue rate ×
	// microarchitectural efficiency).
	MACsPerCycle map[tensor.DataType]float64

	// EffByKind derates the peak for each op class (GEMV-shaped FC layers
	// are bandwidth-starved; pooling and elementwise ops barely use the
	// ALUs). Conv is the 1.0 reference.
	EffByKind map[nn.OpKind]float64

	// MemBWGBs is the effective memory bandwidth in GB/s.
	MemBWGBs float64

	// CacheBytes is the last-level cache capacity; working sets beyond it
	// run at CacheSpillFactor of peak. This knee is what keeps layer
	// latency from being exactly linear in MACs, so the latency predictor
	// has something real to regress.
	CacheBytes       int64
	CacheSpillFactor float64

	// LaunchOverhead is the fixed cost of dispatching one kernel
	// (OpenCL command issue for the GPU, thread-pool wake for the CPU).
	LaunchOverhead time.Duration

	// ConvertPenalty multiplies compute time when the kernel converts
	// between storage and compute types on the fly (the GPU's QUInt8→F16
	// load conversion under processor-friendly quantization).
	ConvertPenalty float64

	// SplitChannelKnee models the utilization loss of partial-channel
	// kernels: a kernel computing c output channels runs at c/(c+knee) of
	// the full-kernel rate. Splitting a wide layer is nearly free; carving
	// a 16-channel convolution into 4-channel slices starves the GEMM's M
	// dimension (CPU) or the core occupancy (GPU). Together with the
	// byte-proportional CPU-GPU synchronization this is why branch
	// distribution beats channel splitting on divergent small-channel
	// modules (§5).
	SplitChannelKnee int

	// PicoJPerMAC is the dynamic energy per multiply-accumulate for each
	// compute data type.
	PicoJPerMAC map[tensor.DataType]float64

	// ActivePowerW is the cluster's typical power draw while busy
	// (reported in traces; energy accounting is work-based).
	ActivePowerW float64
}

// Work describes one kernel invocation for costing.
type Work struct {
	Kind nn.OpKind
	// MACs is the multiply-accumulate count of the kernel (already scaled
	// by the processor's share under channel-wise distribution).
	MACs int64
	// MovedBytes is the DRAM traffic: activations in, weights in,
	// activations out, at their storage widths.
	MovedBytes int64
	// WorkingSetBytes is the resident set (input + weights) used for the
	// cache knee.
	WorkingSetBytes int64
	// Compute is the arithmetic data type of the kernel.
	Compute tensor.DataType
	// Converted marks on-the-fly storage↔compute conversion.
	Converted bool
	// SideChannels is the number of output channels this kernel computes
	// when it is a channel-wise-split share of a layer; 0 marks a full
	// kernel. Split kernels run at SideChannels/(SideChannels+knee) of the
	// full-kernel rate.
	SideChannels int
	// Rows is the GEMM row-panel multiplicity of a fused micro-batch: the
	// number of independent input rows carried by the kernel (0 and 1 mean
	// a single inference). MACs and MovedBytes must already be scaled by
	// the caller; Rows additionally recovers the M-dimension utilization
	// of GEMV-shaped FC kernels, whose single-row derate shrinks as the
	// row panel widens.
	Rows int
}

// PeakMACs returns the processor's peak MAC/s for a compute type.
func (p *Processor) PeakMACs(dt tensor.DataType) float64 {
	per, ok := p.MACsPerCycle[dt]
	if !ok {
		panic(fmt.Sprintf("device: %s has no throughput entry for %v", p.Name, dt))
	}
	return float64(p.Cores) * p.FreqGHz * 1e9 * per
}

// KernelTime returns the execution time of one kernel, excluding the
// dispatch overhead (the executor charges LaunchOverhead according to its
// issue model, since asynchronous issue can hide it, §6).
func (p *Processor) KernelTime(w Work) time.Duration {
	if w.MACs < 0 || w.MovedBytes < 0 {
		panic("device: negative work")
	}
	eff, ok := p.EffByKind[w.Kind]
	if !ok {
		eff = 1
	}
	if w.Rows > 1 && w.Kind == nn.OpFC {
		// A single-row FC is a GEMV: M = 1 leaves the kernel
		// weight-bandwidth-starved, which is what the EffByKind derate
		// models. A fused row panel restores M = Rows and with it the
		// blocked GEMM's weight reuse, linearly up to the conv
		// reference rate.
		if re := eff * float64(w.Rows); re < 1 {
			eff = re
		} else {
			eff = 1
		}
	}
	rate := p.PeakMACs(w.Compute) * eff
	if w.WorkingSetBytes > p.CacheBytes {
		rate *= p.CacheSpillFactor
	}
	if w.SideChannels > 0 {
		rate *= p.SplitEfficiency(w.SideChannels)
	}
	compute := float64(w.MACs) / rate
	if w.Converted {
		compute *= p.ConvertPenalty
	}
	mem := float64(w.MovedBytes) / (p.MemBWGBs * 1e9)
	t := compute
	if mem > t {
		t = mem
	}
	return time.Duration(t * float64(time.Second))
}

// SplitEfficiency returns the utilization of a split kernel computing c
// output channels relative to the full kernel.
func (p *Processor) SplitEfficiency(c int) float64 {
	if c <= 0 {
		return 1
	}
	return float64(c) / float64(c+p.SplitChannelKnee)
}

// KernelEnergyPJ returns the kernel's dynamic compute energy in picojoules
// (DRAM energy is charged by the SoC model from MovedBytes).
func (p *Processor) KernelEnergyPJ(w Work) float64 {
	pj, ok := p.PicoJPerMAC[w.Compute]
	if !ok {
		panic(fmt.Sprintf("device: %s has no energy entry for %v", p.Name, w.Compute))
	}
	e := float64(w.MACs) * pj
	if w.Converted {
		e *= 1.05 // conversion units toggle alongside the ALUs
	}
	return e
}

// Validate checks that the model is internally consistent.
func (p *Processor) Validate() error {
	if p.Cores <= 0 || p.FreqGHz <= 0 {
		return fmt.Errorf("device %s: non-positive cores/frequency", p.Name)
	}
	if p.MemBWGBs <= 0 {
		return fmt.Errorf("device %s: non-positive bandwidth", p.Name)
	}
	if p.CacheSpillFactor <= 0 || p.CacheSpillFactor > 1 {
		return fmt.Errorf("device %s: cache spill factor %v out of (0,1]", p.Name, p.CacheSpillFactor)
	}
	if p.ConvertPenalty < 1 {
		return fmt.Errorf("device %s: convert penalty %v < 1", p.Name, p.ConvertPenalty)
	}
	if p.SplitChannelKnee < 0 {
		return fmt.Errorf("device %s: negative split-channel knee", p.Name)
	}
	for _, dt := range tensor.AllDataTypes {
		if _, ok := p.MACsPerCycle[dt]; !ok {
			return fmt.Errorf("device %s: missing throughput for %v", p.Name, dt)
		}
		if _, ok := p.PicoJPerMAC[dt]; !ok {
			return fmt.Errorf("device %s: missing energy for %v", p.Name, dt)
		}
	}
	return nil
}
