package device

import (
	"testing"
	"time"

	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

func testProc() *Processor {
	return &Processor{
		Name: "test-cpu", Type: CPU, Cores: 4, FreqGHz: 2.0,
		MACsPerCycle: map[tensor.DataType]float64{
			tensor.F32: 2, tensor.F16: 2, tensor.QUInt8: 4,
		},
		EffByKind:        map[nn.OpKind]float64{nn.OpConv: 1.0, nn.OpFC: 0.5},
		MemBWGBs:         10,
		CacheBytes:       1 << 20,
		CacheSpillFactor: 0.8,
		LaunchOverhead:   10 * time.Microsecond,
		ConvertPenalty:   1.05,
		PicoJPerMAC: map[tensor.DataType]float64{
			tensor.F32: 100, tensor.F16: 100, tensor.QUInt8: 40,
		},
		ActivePowerW: 2,
	}
}

func TestPeakMACs(t *testing.T) {
	p := testProc()
	// 4 cores × 2 GHz × 2 MACs/cycle = 16 GMAC/s.
	if got := p.PeakMACs(tensor.F32); got != 16e9 {
		t.Fatalf("peak = %g", got)
	}
	if got := p.PeakMACs(tensor.QUInt8); got != 32e9 {
		t.Fatalf("u8 peak = %g", got)
	}
}

func TestKernelTimeComputeBound(t *testing.T) {
	p := testProc()
	w := Work{Kind: nn.OpConv, MACs: 16e9, MovedBytes: 1000, WorkingSetBytes: 1000, Compute: tensor.F32}
	got := p.KernelTime(w)
	if got != time.Second {
		t.Fatalf("compute-bound kernel = %v, want 1s", got)
	}
	// QUInt8 runs 2× faster.
	w.Compute = tensor.QUInt8
	if got := p.KernelTime(w); got != 500*time.Millisecond {
		t.Fatalf("u8 kernel = %v", got)
	}
}

func TestKernelTimeMemoryBound(t *testing.T) {
	p := testProc()
	// 10 GB moved at 10 GB/s = 1s even with tiny compute.
	w := Work{Kind: nn.OpConv, MACs: 1000, MovedBytes: 10e9, Compute: tensor.F32}
	if got := p.KernelTime(w); got != time.Second {
		t.Fatalf("memory-bound kernel = %v", got)
	}
}

func TestKernelTimeCacheKnee(t *testing.T) {
	p := testProc()
	small := Work{Kind: nn.OpConv, MACs: 16e6, WorkingSetBytes: 1000, Compute: tensor.F32}
	big := Work{Kind: nn.OpConv, MACs: 16e6, WorkingSetBytes: 2 << 20, Compute: tensor.F32}
	ts, tb := p.KernelTime(small), p.KernelTime(big)
	if tb <= ts {
		t.Fatalf("spilled working set must be slower: %v vs %v", ts, tb)
	}
	ratio := float64(tb) / float64(ts)
	if ratio < 1.2 || ratio > 1.3 {
		t.Fatalf("spill ratio = %v, want 1/0.8", ratio)
	}
}

func TestKernelTimeEfficiencyByKind(t *testing.T) {
	p := testProc()
	conv := Work{Kind: nn.OpConv, MACs: 1e9, Compute: tensor.F32}
	fc := Work{Kind: nn.OpFC, MACs: 1e9, Compute: tensor.F32}
	if p.KernelTime(fc) != 2*p.KernelTime(conv) {
		t.Fatal("FC at 0.5 efficiency must take 2× conv time")
	}
	// Unknown kind defaults to 1.0.
	other := Work{Kind: nn.OpSoftmax, MACs: 1e9, Compute: tensor.F32}
	if p.KernelTime(other) != p.KernelTime(conv) {
		t.Fatal("unknown kind defaults to conv efficiency")
	}
}

func TestKernelTimeConvertPenalty(t *testing.T) {
	p := testProc()
	w := Work{Kind: nn.OpConv, MACs: 1e9, Compute: tensor.F16}
	wc := w
	wc.Converted = true
	if p.KernelTime(wc) <= p.KernelTime(w) {
		t.Fatal("conversion must add time")
	}
}

func TestKernelEnergy(t *testing.T) {
	p := testProc()
	w := Work{Kind: nn.OpConv, MACs: 1e9, Compute: tensor.F32}
	if got := p.KernelEnergyPJ(w); got != 100e9 {
		t.Fatalf("energy = %g pJ", got)
	}
	w.Compute = tensor.QUInt8
	if got := p.KernelEnergyPJ(w); got != 40e9 {
		t.Fatalf("u8 energy = %g pJ", got)
	}
}

func TestKernelTimePanicsOnNegativeWork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative MACs must panic")
		}
	}()
	testProc().KernelTime(Work{MACs: -1, Compute: tensor.F32})
}

func TestValidate(t *testing.T) {
	p := testProc()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid processor rejected: %v", err)
	}
	bad := testProc()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores must fail")
	}
	bad2 := testProc()
	delete(bad2.MACsPerCycle, tensor.F16)
	if bad2.Validate() == nil {
		t.Error("missing dtype entry must fail")
	}
	bad3 := testProc()
	bad3.CacheSpillFactor = 1.5
	if bad3.Validate() == nil {
		t.Error("spill factor > 1 must fail")
	}
	bad4 := testProc()
	bad4.ConvertPenalty = 0.9
	if bad4.Validate() == nil {
		t.Error("convert penalty < 1 must fail")
	}
}

func TestTypeString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Error("type strings")
	}
}

func TestSetString(t *testing.T) {
	cases := map[Set]string{
		0:                                 "none",
		CPU.Bit():                         "cpu",
		GPU.Bit():                         "gpu",
		NPU.Bit():                         "npu",
		CPU.Bit() | GPU.Bit():             "cpu+gpu",
		CPU.Bit() | GPU.Bit() | NPU.Bit(): "cpu+gpu+npu",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !GPU.Bit().Has(GPU) || GPU.Bit().Has(CPU) {
		t.Fatal("Has")
	}
	for _, p := range []Type{CPU, GPU, NPU} {
		if p.Bit() != 1<<p {
			t.Fatalf("%v.Bit() = %d, want bit %d", p, p.Bit(), int(p))
		}
	}
}
