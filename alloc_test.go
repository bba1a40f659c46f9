package mulayer_test

import (
	"runtime"
	"testing"

	"mulayer/internal/core"
	"mulayer/internal/models"
	"mulayer/internal/soc"
	"mulayer/internal/tensor"
)

// TestWarmRunAllocBudget guards the per-run allocation of numeric
// inference: perfbench's infer-coop configuration (a reduced GoogLeNet,
// half width at 112², under μLayer on the Exynos 7420) must allocate at
// most 100 kB per warm Runtime.Run. Plans and execution layouts are
// memoized and activations live in pooled arenas, so what a run still
// allocates is its timeline, its result and the float32 output; a change
// that brings back per-run plans or per-node outputs (about 0.9 MB a run)
// fails here. Measured at GOMAXPROCS=1 over 60 runs after a warm-up.
func TestWarmRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations and makes sync.Pool drop pooled arenas at random")
	}
	const budgetKB, runs = 100, 60
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt, err := core.NewRuntime(soc.Exynos7420())
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.GoogLeNet(models.Config{Numeric: true, InputHW: 112, WidthScale: 0.5, NoSoftmax: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	calib := make([]*tensor.Tensor, 2)
	for i := range calib {
		calib[i] = tensor.New(m.InputShape)
		calib[i].FillRandom(100+uint64(i)*101, 1)
	}
	if err := m.Calibrate(calib); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(m.InputShape)
	in.FillRandom(5000, 1)
	rc := core.RunConfig{Mechanism: core.MechMuLayer, Numeric: true}
	run := func() {
		if _, err := rt.Run(m, in, rc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("warm Runtime.Run allocates %.1f kB per run", perRun)
	if perRun > budgetKB {
		t.Fatalf("warm Runtime.Run allocates %.1f kB per run, budget %d kB", perRun, budgetKB)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool
