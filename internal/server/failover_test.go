package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/device"
	"mulayer/internal/faults"
	"mulayer/internal/server/metrics"
	"mulayer/internal/soc"
)

func devByName(t *testing.T, s *Scheduler, name string) *poolDevice {
	t.Helper()
	for _, d := range s.Devices() {
		if d.name == name {
			return d
		}
	}
	t.Fatalf("no device %q in pool", name)
	return nil
}

// waitIdle polls until no admitted request is outstanding — a stranded
// queue entry (settled by nobody) fails the test here.
func waitIdle(t *testing.T, s *Scheduler, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d after completion; stranded entries", s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverMidBatchDeath: a processor dies mid-batch on the preferred
// device; both batchmates must fail over to the surviving device and
// succeed, and the wounded device must keep serving under a degraded
// (processor-down) plan.
func TestFailoverMidBatchDeath(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 8,
		// MaxBatch 2 with a long window: the second submit seals the batch,
		// so both requests share the fused run deterministically.
		MaxBatch:  2,
		BatchWait: time.Second,
		Faults:    map[string]faults.Config{"high": {DieRate: 1, MaxFaults: 1, Seed: 1}},
	})
	m := s.cfg.Models["googlenet"]
	var wg sync.WaitGroup
	outs := make([]outcome, 2)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.Submit(context.Background(), "googlenet", m, core.MechMuLayer, "", 1)
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("batchmate %d: %v", i, o.err)
		}
		if o.class != "mid" {
			t.Errorf("batchmate %d served by %s, want failover to mid", i, o.device)
		}
	}

	hi := devByName(t, s, "high-0")
	h := hi.health()
	if h.Down == 0 {
		t.Fatalf("high-0 took a die fault but reports no dead processor: %+v", h)
	}
	if h.State != healthOK {
		t.Fatalf("one die fault should degrade, not quarantine: %+v", h)
	}
	if hi.faults.Stats().Dies != 1 {
		t.Fatalf("injector stats %+v, want exactly one die", hi.faults.Stats())
	}

	// The degraded device still serves: its plans route around the dead
	// processor (fault budget is spent, so nothing else is injected).
	out := s.Submit(context.Background(), "googlenet", m, core.MechMuLayer, "high", 1)
	if out.err != nil {
		t.Fatalf("degraded high-0 refused work: %v", out.err)
	}
	if out.device != "high-0" {
		t.Fatalf("pinned to high, served by %s", out.device)
	}
	waitIdle(t, s, time.Second)
}

// TestPanicRecoveryFailover: an injected kernel panic must be recovered
// into a DeviceError, counted as a transient device failure, and the
// request failed over — the server never crashes and nothing leaks.
func TestPanicRecoveryFailover(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 8,
		Faults:     map[string]faults.Config{"high": {PanicRate: 1, MaxFaults: 1, Seed: 7}},
	})
	m := s.cfg.Models["lenet5"]
	out := s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
	if out.err != nil {
		t.Fatalf("request lost to a recovered panic: %v", out.err)
	}
	if out.class != "mid" {
		t.Fatalf("served by %s, want failover to mid after the panic", out.device)
	}
	hi := devByName(t, s, "high-0")
	if got := hi.faults.Stats().Panics; got != 1 {
		t.Fatalf("injected panics %d, want 1", got)
	}
	if h := hi.health(); h.Failures != 1 || h.Down != 0 {
		t.Fatalf("a panic is transient, not a processor death: %+v", h)
	}
	waitIdle(t, s, time.Second)
}

// TestRequeueExcludesFailedDevice: the retry of a failed request must land
// on a device it has not failed on yet; when every device has failed it,
// the terminal error is a typed 503 carrying the device fault.
func TestRequeueExcludesFailedDevice(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		QueueDepth: 8,
		Faults:     map[string]faults.Config{"": {FailRate: 1, Seed: 3}},
	})
	m := s.cfg.Models["lenet5"]
	out := s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrNoHealthyDevice) {
		t.Fatalf("got %v, want ErrNoHealthyDevice once both devices are excluded", out.err)
	}
	var f *faults.Fault
	if !errors.As(out.err, &f) {
		t.Errorf("terminal error should carry the device fault: %v", out.err)
	}
	if statusFor(out.err) != 503 {
		t.Errorf("status %d for %v, want 503", statusFor(out.err), out.err)
	}
	// Both devices saw exactly one attempt: the retry excluded the first
	// failure's device instead of hammering it again.
	for _, d := range s.Devices() {
		if d.faults.Stats().Fails != 1 {
			t.Errorf("device %s took %d failures, want 1 (exclusion broken)", d.name, d.faults.Stats().Fails)
		}
	}
	waitIdle(t, s, time.Second)
}

// TestRetriesExhausted: with a one-retry budget and plenty of devices, the
// second failure settles the request with the typed budget error.
func TestRetriesExhausted(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 3}},
		QueueDepth: 8,
		MaxRetries: 1,
		Faults:     map[string]faults.Config{"": {FailRate: 1, Seed: 4}},
	})
	m := s.cfg.Models["lenet5"]
	out := s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrRetriesExhausted) {
		t.Fatalf("got %v, want ErrRetriesExhausted", out.err)
	}
	if statusFor(out.err) != 503 {
		t.Errorf("status %d, want 503", statusFor(out.err))
	}
	waitIdle(t, s, time.Second)
}

// TestDeadlineTooTightOnRetry: when the cheapest surviving device cannot
// finish a retry inside the request's remaining deadline, the request gets
// the typed feasibility error immediately instead of a doomed retry.
func TestDeadlineTooTightOnRetry(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 2}},
		QueueDepth: 8,
		TimeScale:  0.005, // googlenet ≈ 30ms simulated → seconds of wall per attempt
		Faults:     map[string]faults.Config{"": {FailRate: 1, Seed: 6}},
	})
	m := s.cfg.Models["googlenet"]
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	out := s.Submit(ctx, "googlenet", m, core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrDeadlineTooTight) {
		t.Fatalf("got %v, want ErrDeadlineTooTight", out.err)
	}
	if statusFor(out.err) != 503 {
		t.Errorf("status %d, want 503", statusFor(out.err))
	}
	waitIdle(t, s, time.Second)
}

// TestHalfOpenProbeRecovery: three consecutive failures quarantine the
// only device; during backoff requests get the typed no-device error; the
// first request after backoff is the half-open probe, and its success
// closes the circuit.
func TestHalfOpenProbeRecovery(t *testing.T) {
	const backoff = 500 * time.Millisecond
	s := newSched(t, Config{
		SoCs:              []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth:        8,
		MaxRetries:        -1, // no failover: each failure settles immediately
		QuarantineBackoff: backoff,
		Faults:            map[string]faults.Config{"": {FailRate: 1, MaxFaults: 3, Seed: 5}},
	})
	m := s.cfg.Models["lenet5"]
	for i := 0; i < 3; i++ {
		out := s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
		if !errors.Is(out.err, ErrRetriesExhausted) {
			t.Fatalf("faulty attempt %d: got %v, want ErrRetriesExhausted", i, out.err)
		}
	}
	d := s.Devices()[0]
	if h := d.health(); h.State != healthQuarantined || h.Failures != 3 {
		t.Fatalf("after three failures: %+v, want quarantined with 3 failures", h)
	}

	out := s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrNoHealthyDevice) {
		t.Fatalf("during quarantine: got %v, want ErrNoHealthyDevice", out.err)
	}

	time.Sleep(backoff + 100*time.Millisecond)
	// The fault budget is spent, so the half-open probe runs clean and
	// closes the circuit.
	out = s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
	if out.err != nil {
		t.Fatalf("probe after backoff: %v", out.err)
	}
	if h := d.health(); h.State != healthOK || h.Failures != 0 || !h.Until.IsZero() {
		t.Fatalf("after probe success: %+v, want a closed circuit", h)
	}
	waitIdle(t, s, time.Second)
}

// TestCircuitBreakerStateMachine drives one device's breaker directly:
// threshold, backoff doubling with its cap, the single half-open probe
// slot, probe reversion, recovery, and terminal death.
func TestCircuitBreakerStateMachine(t *testing.T) {
	d := &poolDevice{name: "x"}
	now := time.Now()
	const thr = 2
	step := func(perm device.Set) string {
		return d.recordFailure(perm, thr, time.Second, 4*time.Second, now)
	}

	if tr := step(0); tr != "" {
		t.Fatalf("first failure transitioned %q, want none", tr)
	}
	if tr := step(0); tr != "quarantined" {
		t.Fatalf("threshold failure transitioned %q, want quarantined", tr)
	}
	if d.canServe(now) {
		t.Fatal("quarantined device served before its backoff expired")
	}
	if !d.canServe(now.Add(time.Second)) {
		t.Fatal("backoff expiry must make the device a probe candidate")
	}
	if !d.noteDispatch() {
		t.Fatal("first dispatch after backoff must claim the probe slot")
	}
	if d.noteDispatch() {
		t.Fatal("the half-open circuit has exactly one probe slot")
	}
	// A probe failure re-quarantines with a doubled backoff.
	if tr := step(0); tr != "quarantined" {
		t.Fatalf("probe failure transitioned %q, want quarantined", tr)
	}
	if until := d.health().Until; !until.Equal(now.Add(2 * time.Second)) {
		t.Fatalf("backoff after probe failure ends at %v, want now+2s", until)
	}
	// Doubling caps at the configured maximum.
	step(0)
	if until := d.health().Until; !until.Equal(now.Add(4 * time.Second)) {
		t.Fatalf("third backoff ends at %v, want now+4s", until)
	}
	step(0)
	if until := d.health().Until; !until.Equal(now.Add(4 * time.Second)) {
		t.Fatalf("backoff exceeded its cap: ends at %v", until)
	}
	// A claimed probe with no verdict reverts to quarantine.
	d.noteDispatch()
	d.revertProbe()
	if st := d.health().State; st != healthQuarantined {
		t.Fatalf("reverted probe left state %v, want quarantined", st)
	}
	if rec := d.recordSuccess(); !rec {
		t.Fatal("success out of quarantine must report recovery")
	}
	if h := d.health(); h.State != healthOK || h.Failures != 0 || h.Down != 0 {
		t.Fatalf("after recovery: %+v, want a clean device", h)
	}
	// Losing both processors is terminal: no probe, no recovery.
	if tr := step(device.CPU.Bit()); tr != "degraded" {
		t.Fatalf("CPU death transitioned %q, want degraded", tr)
	}
	if tr := step(device.GPU.Bit()); tr != "dead" {
		t.Fatalf("GPU death transitioned %q, want dead", tr)
	}
	if d.canServe(now.Add(time.Hour)) {
		t.Fatal("dead device must never serve")
	}
	d.recordSuccess()
	if st := d.health().State; st != healthDead {
		t.Fatalf("recordSuccess revived a dead device to %v", st)
	}
}

// TestCancellationRacesRetry: client cancellations racing the failover
// path must neither strand queue entries nor produce untyped errors; run
// under -race this hammers the settlement paths.
func TestCancellationRacesRetry(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 4}},
		QueueDepth: 64,
		MaxRetries: 8,
		Faults:     map[string]faults.Config{"": {FailRate: 1, Seed: 9}},
	})
	m := s.cfg.Models["lenet5"]
	const n = 12
	var wg sync.WaitGroup
	outs := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
				cancel()
			}()
			outs[i] = s.Submit(ctx, "lenet5", m, core.MechMuLayer, "", 1)
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		switch {
		case o.err == nil:
			t.Errorf("request %d succeeded on an always-failing pool", i)
		case errors.Is(o.err, context.Canceled),
			errors.Is(o.err, ErrRetriesExhausted),
			errors.Is(o.err, ErrNoHealthyDevice):
		default:
			t.Errorf("request %d: untyped terminal error %v", i, o.err)
		}
	}
	waitIdle(t, s, 2*time.Second)
}

// TestChaosSeededFaults is the acceptance chaos run: a seeded fault mix
// (transient failures, stalls, panics, and a trickle of processor deaths)
// tuned so roughly a tenth of requests take a fault mid-run — per-kernel
// rates compound over the ~10²-kernel plans, so the per-kernel numbers
// are far below 0.1. Every request must end 200 or a typed 503, no panic
// may escape, no queue entry may strand, and the goroutine count must
// return to baseline after drain.
func TestChaosSeededFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 2},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 2},
		},
		QueueDepth:        128,
		MaxBatch:          4,
		BatchWait:         time.Millisecond,
		MaxRetries:        3,
		QuarantineBackoff: 50 * time.Millisecond,
		Models:            testModels(t),
		Faults: map[string]faults.Config{"": {
			Seed:        42,
			FailRate:    0.002,
			StallRate:   0.001,
			StallFactor: 2,
			DieRate:     0.0002,
			PanicRate:   0.0005,
		}},
	}
	s, err := NewScheduler(cfg, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 16, 10
	names := []string{"googlenet", "lenet5"}
	var mu sync.Mutex
	counts := map[int]int{}
	var untyped []error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := names[(w+i)%len(names)]
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				out := s.Submit(ctx, name, cfg.Models[name], core.MechMuLayer, "", 1)
				cancel()
				code := statusFor(out.err)
				mu.Lock()
				counts[code]++
				if code != 200 && code != 503 {
					untyped = append(untyped, out.err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for _, e := range untyped {
		t.Errorf("request ended with an untyped error: %v", e)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	// Availability under chaos: failover should recover most faulted
	// requests, so well over half must succeed.
	if counts[200] < total/2 {
		t.Fatalf("availability collapsed under chaos: %v", counts)
	}
	waitIdle(t, s, 2*time.Second)

	var injected, kernels int64
	for _, d := range s.Devices() {
		if d.faults != nil {
			st := d.faults.Stats()
			injected += st.Injected()
			kernels += st.Kernels
		}
	}
	if injected == 0 {
		t.Fatal("chaos run injected no faults; the wiring is broken")
	}
	t.Logf("chaos: codes=%v injected=%d kernels=%d", counts, injected, kernels)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("stranded queue entries after drain: %d", got)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d vs baseline %d: leak after chaos drain", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
