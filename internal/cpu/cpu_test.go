package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The CPUID/XGETBV check agrees with the kernel's own view of the CPU:
// Linux lists avx2 among a processor's flags only when the CPU has it
// and the kernel saves the YMM state, the two things hasAVX2 checks.
func TestAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatalf("AVX2 set on %s", runtime.GOARCH)
		}
		return
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); AVX2 != want {
			t.Fatalf("AVX2 = %v, /proc/cpuinfo lists avx2: %v", AVX2, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
