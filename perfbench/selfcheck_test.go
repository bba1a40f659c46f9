package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-check holds the
// program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram checks that BENCHMARK.json names exactly the
// program's workloads and per-layer metrics.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(s.PerLayer) != len(layerList) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(s.PerLayer), len(layerList))
	}
	for i, l := range layerList {
		if s.PerLayer[i].Name != l.name || s.PerLayer[i].Unit != l.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]",
				i, s.PerLayer[i].Name, s.PerLayer[i].Unit, l.name, l.unit)
		}
	}
}

// TestStats pins the statistics the metrics rest on: nearest-rank
// percentiles, the p90 sample rule, and means of equal samples that are
// exact whatever their count.
func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if p50, p90 := percentile(xs, 0.5), percentile(xs, 0.9); p50 != 5 || p90 != 9 {
		t.Errorf("p50, p90 = %v, %v, want 5, 9", p50, p90)
	}
	if n := beyond(100, 0.9); n != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", n)
	}
	if n := beyond(99, 0.9); n != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9", n)
	}
	for _, n := range []int{1, 3, 7, 110, 4321} {
		same := make([]float64, n)
		for i := range same {
			same[i] = 9.801424
		}
		if m := mean(same); m != 9.801424 {
			t.Errorf("mean of %d equal samples = %v", n, m)
		}
	}
}

// TestHostTime checks the scaling to the reference host speed: each
// closed-loop op by the median calibration time around it, an open loop's
// CPU time interval by interval and nothing else of it.
func TestHostTime(t *testing.T) {
	ref := ms(refCalib)
	closed := &phase{closed: true, good: 12, attempted: 12}
	for i := 0; i < 12; i++ {
		slow := 1.0
		if i >= 6 {
			slow = 2 // the host runs at half speed for the second half
		}
		closed.lat = append(closed.lat, 10*slow)
		closed.workCPU = append(closed.workCPU, 8*slow)
		closed.calMS = append(closed.calMS, ref*slow)
	}
	if f := speedFactors(closed.calMS); f[0] != 1 || f[11] != 2 {
		t.Errorf("speed factors %v, want 1 at the start and 2 at the end", f)
	}
	lat, goodput, cpu := closed.hostTime()
	if percentile(lat, 0.5) != 10 || percentile(lat, 0.9) != 10 || goodput != 100 || cpu != 8 {
		t.Errorf("closed loop: p50 %v, p90 %v, goodput %v, cpu %v; want 10, 10, 100, 8",
			percentile(lat, 0.5), percentile(lat, 0.9), goodput, cpu)
	}
	// The host at half speed throughout; the interval after the last
	// calibration counts too.
	open := &phase{lat: []float64{30, 10, 20}, good: 3, attempted: 3, elapsed: time.Second,
		calMS: []float64{2 * ref, 2 * ref, 2 * ref}, workCPU: []float64{6, 3, 2, 1}}
	lat, goodput, cpu = open.hostTime()
	if percentile(lat, 0.5) != 20 || goodput != 3 || cpu != 2 {
		t.Errorf("open loop: p50 %v, goodput %v, cpu %v; want 20, 3, 2", percentile(lat, 0.5), goodput, cpu)
	}
}

// TestSelfCheck runs every workload briefly, untraced and traced, and
// checks that each run emits every metric BENCHMARK.json names with its
// unit, that an untraced run has ten latency samples beyond its p90, and
// that no op fails.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := opts{workload: w.Name, seed: 1, seconds: 1, trace: traced, minSamples: 110, setups: 1, out: t.TempDir()}
				want := s.EndToEnd
				if traced {
					o.minSamples = 10
					want = s.PerLayer
				}
				res, err := runWorkload(o, io.Discard)
				if err != nil {
					t.Fatalf("trace=%t: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%t: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%t: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				if !traced {
					if n := beyond(res.Attempted, 0.9); n < minBeyondP90 {
						t.Errorf("%d samples leave %d beyond p90, want %d", res.Attempted, n, minBeyondP90)
					}
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}
