package gemm

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The CPUID/XGETBV check agrees with the kernel's own view of the CPU:
// Linux lists avx2 among a processor's flags only when the CPU has it
// and the kernel saves the YMM state, the two things cpuHasAVX2 checks.
func TestCPUHasAVX2MatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx2")
		if got := cpuHasAVX2(); got != want {
			t.Fatalf("cpuHasAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
		}
		if got, want := tiles.name == "avx2", want; got != want {
			t.Fatalf("kernels run %q with avx2 listed: %v", tiles.name, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
