package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mulayer/internal/core"
	"mulayer/internal/faults"
	"mulayer/internal/server/metrics"
	"mulayer/internal/soc"
)

func TestParseOverloadSpec(t *testing.T) {
	cfg, err := ParseOverloadSpec("admit=on,watchdog=8,queue-wait=50ms,eval=10ms,hold=1s,retry-rate=5,retry-burst=10")
	if err != nil {
		t.Fatal(err)
	}
	want := OverloadConfig{
		DeadlineAdmission: true, WatchdogFactor: 8,
		QueueWaitP95: 50 * time.Millisecond, EvalEvery: 10 * time.Millisecond,
		Hold: time.Second, RetryRate: 5, RetryBurst: 10,
	}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if empty, err := ParseOverloadSpec("  "); err != nil || empty.Enabled() {
		t.Fatalf("empty spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{
		"watchdog=0.5", // factor in (0,1) trips on every kernel
		"watchdog=NaN",
		"watchdog=+Inf",
		"queue-wait=-1s",
		"eval=-1ms",
		"hold=-1s",
		"retry-rate=-1",
		"retry-rate=Inf",
		"retry-burst=-2",
		"admit=maybe",
		"bogus=1",
		"admit", // missing value
		"queue-wait=fast",
		"admit=",              // empty value
		"watchdog=",           // empty value
		"admit=on;watchdog=8", // no ';' blocks: "on;watchdog=8" is the value
	} {
		if _, err := ParseOverloadSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
	// Unlike the fault grammars, a repeated key is accepted and the last
	// value wins; blank fields are skipped.
	for spec, want := range map[string]OverloadConfig{
		"admit=on,admit=off":         {},
		"admit=off,,admit=on":        {DeadlineAdmission: true},
		"watchdog=2 , watchdog = 4 ": {WatchdogFactor: 4},
	} {
		if cfg, err := ParseOverloadSpec(spec); err != nil || cfg != want {
			t.Errorf("spec %q: %+v, %v; want %+v", spec, cfg, err, want)
		}
	}
}

func TestParsePriority(t *testing.T) {
	for in, want := range map[string]Priority{
		"": PriorityNormal, "normal": PriorityNormal,
		"high": PriorityHigh, "low": PriorityLow,
	} {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("unknown priority accepted")
	}
}

// TestJitterRetryAfterSpread: jittered Retry-After values must cover the
// ±25% band (not collapse to the input) and never drop below 1 second.
func TestJitterRetryAfterSpread(t *testing.T) {
	distinct := map[int]bool{}
	for i := 0; i < 100; i++ {
		u := float64(i) / 100
		v := jitterRetryAfter(20, u)
		if v < 15 || v > 25 {
			t.Fatalf("jitterRetryAfter(20, %v) = %d outside the ±25%% band", u, v)
		}
		distinct[v] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("only %d distinct values across the unit interval; jitter is not spreading", len(distinct))
	}
	if got := jitterRetryAfter(1, 0); got < 1 {
		t.Fatalf("jitter produced a %d-second Retry-After", got)
	}
}

// TestRetryAfterJitterHTTP: the 503 Retry-After values handed to a burst
// of rejected clients must not all be identical — synchronized retries
// would herd back together.
func TestRetryAfterJitterHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 4,
		TimeScale:  0.2, // googlenet ≈ 523ms of wall pacing: the queue stays full
	})
	var mu sync.Mutex
	headers := map[string]int{}
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postInfer(t, ts.URL, InferRequest{Model: "googlenet", TimeoutMS: 100})
			if resp.StatusCode == http.StatusServiceUnavailable {
				mu.Lock()
				headers[resp.Header.Get("Retry-After")]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := 0
	for h, n := range headers {
		secs, err := strconv.Atoi(h)
		if err != nil || secs < 1 || secs > 38 {
			t.Fatalf("Retry-After %q outside [1, 38]", h)
		}
		total += n
	}
	if total < 10 {
		t.Fatalf("only %d rejections; the queue never filled", total)
	}
	if len(headers) < 2 {
		t.Fatalf("all %d rejected clients got the same Retry-After %v; jitter is not applied", total, headers)
	}
}

// TestRetryBudgetTokenBucket: the bucket starts at burst, spends one token
// per allow, refuses when empty, refills at the configured rate, and keys
// by model class.
func TestRetryBudgetTokenBucket(t *testing.T) {
	rb := newRetryBudget(OverloadConfig{RetryRate: 2, RetryBurst: 3})
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		if !rb.allow("googlenet", t0) {
			t.Fatalf("allow %d refused inside the burst", i)
		}
	}
	if rb.allow("googlenet", t0) {
		t.Fatal("allow succeeded on an empty bucket")
	}
	if !rb.allow("lenet5", t0) {
		t.Fatal("a different model class shares the exhausted bucket")
	}
	if !rb.allow("googlenet", t0.Add(time.Second)) { // 2 tokens/s refill
		t.Fatal("bucket did not refill")
	}
	if toks := rb.tokens(t0.Add(time.Hour)); toks["googlenet"] > 3 {
		t.Fatalf("bucket refilled past its burst: %v", toks)
	}
	var nilRB *retryBudget
	if !nilRB.allow("anything", t0) {
		t.Fatal("disabled budget must allow everything")
	}
}

// TestOverloadControllerLadder drives the controller with synthetic
// clocks: queue-wait p95 above the threshold steps the ladder up once per
// evaluation, a mid-band p95 holds the level, and only a sustained p95
// under half the threshold steps it back down — one level per hold.
func TestOverloadControllerLadder(t *testing.T) {
	cfg := OverloadConfig{
		QueueWaitP95: 100 * time.Millisecond,
		EvalEvery:    10 * time.Millisecond,
		Hold:         50 * time.Millisecond,
	}.withDefaults()
	c := newOverloadController(cfg)
	t0 := time.Now()

	// Saturation: every evaluation steps up until the top of the ladder.
	for step := 1; step <= 5; step++ {
		now := t0.Add(time.Duration(step) * cfg.EvalEvery)
		c.observe(now, 300*time.Millisecond)
		c.evaluate(now, false)
	}
	if c.level() != maxOverloadLevel {
		t.Fatalf("level %d after sustained overload, want %d", c.level(), maxOverloadLevel)
	}

	// A wedged-but-nonempty queue with no fresh samples yields no verdict.
	stale := t0.Add(time.Hour)
	if tr := c.evaluate(stale, false); tr != "" || c.level() != maxOverloadLevel {
		t.Fatalf("no-sample evaluation transitioned %q to level %d", tr, c.level())
	}

	// Mid-band waits (between threshold/2 and threshold) hold the level.
	mid := stale.Add(cfg.EvalEvery)
	c.observe(mid, 70*time.Millisecond)
	if tr := c.evaluate(mid, false); tr != "" {
		t.Fatalf("mid-band p95 transitioned %q", tr)
	}

	// Recovery: an idle queue steps down one level per elapsed hold. The
	// first evaluation only starts the hold clock; each subsequent
	// hold-spaced evaluation takes one step.
	base := mid.Add(time.Hour) // age the mid-band sample out of the window
	for i := 0; i <= maxOverloadLevel; i++ {
		c.evaluate(base.Add(time.Duration(i)*cfg.Hold), true)
	}
	if c.level() != 0 {
		t.Fatalf("level %d after sustained idle, want 0", c.level())
	}
	_, _, up, down := c.snapshot()
	if up != int64(maxOverloadLevel) || down != int64(maxOverloadLevel) {
		t.Fatalf("transition counts up=%d down=%d, want %d each", up, down, maxOverloadLevel)
	}
}

// TestEffectiveBatchWaitShrinks: brownout levels halve the batching window
// per level from level 1 up.
func TestEffectiveBatchWaitShrinks(t *testing.T) {
	s := newSched(t, Config{
		SoCs:      []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		MaxBatch:  4,
		BatchWait: 8 * time.Millisecond,
		Overload:  OverloadConfig{QueueWaitP95: time.Second},
	})
	for lvl, want := range map[int]time.Duration{
		0: 8 * time.Millisecond,
		1: 4 * time.Millisecond,
		2: 2 * time.Millisecond,
		3: time.Millisecond,
	} {
		s.overload.lvl.Store(int32(lvl))
		if got := s.effectiveBatchWait(); got != want {
			t.Errorf("level %d: window %v, want %v", lvl, got, want)
		}
	}
	s.overload.lvl.Store(0)
}

// TestPriorityShedAtLevelThree: at the top brownout level low-priority
// requests are rejected before any planning work; normal and high still
// get service.
func TestPriorityShedAtLevelThree(t *testing.T) {
	s := newSched(t, Config{
		SoCs:     []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		Overload: OverloadConfig{QueueWaitP95: time.Second},
	})
	m := s.cfg.Models["lenet5"]
	s.overload.lvl.Store(overloadLevelShedLow)
	out := s.SubmitRequest(context.Background(), Request{
		ModelName: "lenet5", Model: m, Mech: core.MechMuLayer, Priority: PriorityLow,
	})
	if !errors.Is(out.err, ErrPriorityShed) {
		t.Fatalf("low-priority request at level 3: %v, want ErrPriorityShed", out.err)
	}
	if statusFor(out.err) != http.StatusServiceUnavailable {
		t.Fatalf("ErrPriorityShed maps to %d, want 503", statusFor(out.err))
	}
	for _, prio := range []Priority{PriorityHigh, PriorityNormal} {
		out := s.SubmitRequest(context.Background(), Request{
			ModelName: "lenet5", Model: m, Mech: core.MechMuLayer, Priority: prio,
		})
		if out.err != nil {
			t.Fatalf("%v request refused at level 3: %v", prio, out.err)
		}
	}
	if n := s.mets.admissionRejects.With("priority_shed").Value(); n != 1 {
		t.Fatalf("priority_shed rejects %d, want 1", n)
	}
}

// TestDeadlineInfeasibleAdmission: a request whose deadline cannot cover
// even its own predicted runtime is rejected at admission in O(admission)
// time with the typed error — not parked in the queue to 504.
func TestDeadlineInfeasibleAdmission(t *testing.T) {
	s := newSched(t, Config{
		SoCs:      []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		TimeScale: 0.01, // googlenet ≈ 3s of predicted wall time
		Overload:  OverloadConfig{DeadlineAdmission: true},
	})
	m := s.cfg.Models["googlenet"]
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := s.Submit(ctx, "googlenet", m, core.MechMuLayer, "", 1)
	elapsed := time.Since(start)
	if !errors.Is(out.err, ErrDeadlineInfeasible) {
		t.Fatalf("infeasible request: %v, want ErrDeadlineInfeasible", out.err)
	}
	if statusFor(out.err) != http.StatusServiceUnavailable {
		t.Fatalf("ErrDeadlineInfeasible maps to %d, want 503", statusFor(out.err))
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("admission rejection took %v; it queued instead of rejecting", elapsed)
	}
	// Without a deadline a request sails through the same admission check
	// (lenet5: small enough that its paced run keeps the test fast).
	l5 := s.cfg.Models["lenet5"]
	if out := s.Submit(context.Background(), "lenet5", l5, core.MechMuLayer, "", 1); out.err != nil {
		t.Fatalf("deadline-free request refused: %v", out.err)
	}
	if n := s.mets.admissionRejects.With("deadline_infeasible").Value(); n != 1 {
		t.Fatalf("deadline_infeasible rejects %d, want 1", n)
	}
}

// TestQueueAgingShedsStaleWork: a request admitted as feasible whose queue
// wait then eats its headroom (here: the request ahead of it stalls to 2×
// its prediction) is shed at dispatch instead of burning device time on a
// doomed run.
func TestQueueAgingShedsStaleWork(t *testing.T) {
	s := newSched(t, Config{
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 8,
		TimeScale:  0.2, // googlenet ≈ 523ms predicted wall, ~1047ms stalled
		Faults: map[string]faults.Config{"high": {
			StallRate: 1, StallFactor: 2, Seed: 3,
		}},
		Overload: OverloadConfig{DeadlineAdmission: true},
	})
	m := s.cfg.Models["googlenet"]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the device for ~1047ms: every kernel stalls 2×, and the
		// pacing loop books the stalled (actual) latency.
		s.Submit(context.Background(), "googlenet", m, core.MechMuLayer, "", 1)
	}()
	// Wait until the first request's cost is committed to the device.
	deadline := time.Now().Add(time.Second)
	for devByName(t, s, "high-0").depth.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	// Feasible at admission (predicted wait 523ms + run 523ms < 1300ms),
	// infeasible by dispatch (the actual wait ≈ 1047ms leaves ~253ms of
	// headroom against a 523ms predicted run).
	ctx, cancel := context.WithTimeout(context.Background(), 1300*time.Millisecond)
	defer cancel()
	out := s.Submit(ctx, "googlenet", m, core.MechMuLayer, "", 1)
	if !errors.Is(out.err, ErrDeadlineInfeasible) {
		t.Fatalf("aged request: %v, want ErrDeadlineInfeasible from queue aging", out.err)
	}
	if n := s.mets.admissionRejects.With("queue_aged").Value(); n != 1 {
		t.Fatalf("queue_aged rejects %d, want 1", n)
	}
	wg.Wait()
	waitIdle(t, s, 3*time.Second)
}

// TestWatchdogTripFailsOver: a stalled kernel past the watchdog budget
// must surface as a device failure — the request fails over to the other
// class and succeeds, the stalled device takes a circuit-breaker failure,
// and the trip is counted per processor.
func TestWatchdogTripFailsOver(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := NewScheduler(Config{
		Models: testModels(t),
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 8,
		Faults: map[string]faults.Config{"high": {
			StallRate: 1, StallFactor: 100, MaxFaults: 1, Seed: 5,
		}},
		Overload: OverloadConfig{WatchdogFactor: 8},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	m := testModels(t)["googlenet"]
	out := s.Submit(context.Background(), "googlenet", m, core.MechMuLayer, "", 1)
	if out.err != nil {
		t.Fatalf("request lost to a watchdog trip: %v", out.err)
	}
	if out.class != "mid" {
		t.Fatalf("served by %s, want failover to mid after the trip", out.device)
	}
	if f := devByName(t, s, "high-0").health().Failures; f != 1 {
		t.Fatalf("stalled device has %d circuit-breaker failures, want 1", f)
	}
	var b strings.Builder
	_, _ = reg.WriteTo(&b)
	trips := regexp.MustCompile(`(?m)^mulayer_watchdog_trips_total\{proc="[^"]+"\} 1$`)
	if !trips.MatchString(b.String()) {
		t.Fatalf("no per-proc watchdog trip in the exposition:\n%s", b.String())
	}
}

// TestRetryBudgetStopsRetryStorm: with every device failing and a
// one-token retry budget, exactly one failover retry is spent and the
// rest of the burst degrades to fast typed 503s instead of a retry storm.
func TestRetryBudgetStopsRetryStorm(t *testing.T) {
	s := newSched(t, Config{
		SoCs: []SoCSpec{
			{Name: "high", SoC: soc.Exynos7420, Workers: 1},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 1},
		},
		QueueDepth: 16,
		MaxRetries: 3,
		Faults:     map[string]faults.Config{"": {FailRate: 1, Seed: 11}},
		Overload:   OverloadConfig{RetryRate: 0.0001, RetryBurst: 1},
	})
	m := s.cfg.Models["lenet5"]
	var exhausted, retried int
	for i := 0; i < 6; i++ {
		out := s.Submit(context.Background(), "lenet5", m, core.MechMuLayer, "", 1)
		switch {
		case out.err == nil:
			t.Fatalf("request %d succeeded on an always-failing pool", i)
		case errors.Is(out.err, ErrRetryBudgetExhausted):
			exhausted++
		case errors.Is(out.err, ErrRetriesExhausted), errors.Is(out.err, ErrNoHealthyDevice):
			retried++
		default:
			t.Fatalf("request %d: untyped error %v", i, out.err)
		}
		if statusFor(out.err) != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, statusFor(out.err))
		}
	}
	if exhausted == 0 {
		t.Fatal("no request hit the retry budget")
	}
	// One token: at most one request got a real failover attempt.
	if got := s.mets.retryExhausted.With("lenet5").Value(); got != int64(exhausted) {
		t.Fatalf("retry_budget_exhausted metric %d, want %d", got, exhausted)
	}
	waitIdle(t, s, 2*time.Second)
}

// TestOverloadSoak is the admission-under-races soak: sustained 2×+
// saturation with the full overload stack on. Every request must end 200
// or a typed 503, the brownout ladder must climb and shed low-priority
// work, an infeasible deadline must be rejected in O(admission) while the
// queue is ~seconds deep, and the pool must drain back to the goroutine
// baseline. Run under -race (make ci does).
func TestOverloadSoak(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := Config{
		Models:     testModels(t),
		SoCs:       []SoCSpec{{Name: "high", SoC: soc.Exynos7420, Workers: 1}},
		QueueDepth: 256,
		TimeScale:  10, // googlenet ≈ 10.5ms of wall pacing per request
		Overload: OverloadConfig{
			DeadlineAdmission: true,
			QueueWaitP95:      10 * time.Millisecond,
			EvalEvery:         5 * time.Millisecond,
			Hold:              time.Minute, // never step down mid-test
		},
	}
	reg := metrics.NewRegistry()
	s, err := NewScheduler(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Models["googlenet"]

	counts := make(chan int, 512)
	var wg sync.WaitGroup
	submit := func(prio Priority, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := s.SubmitRequest(context.Background(), Request{
					ModelName: "googlenet", Model: m, Mech: core.MechMuLayer, Priority: prio,
				})
				code := statusFor(out.err)
				if code != 200 && code != 503 {
					t.Errorf("untyped outcome under soak: %v", out.err)
				}
				counts <- code
			}()
		}
	}

	// Wave 1 saturates the single device (~10.5ms each, all at once): queue
	// waits blow past the 10ms threshold and the ladder climbs to 3.
	submit(PriorityNormal, 200)
	deadline := time.Now().Add(5 * time.Second)
	for s.overload.level() < overloadLevelShedLow {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at level %d under saturation", s.overload.level())
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is now hundreds of milliseconds deep: an infeasible
	// deadline must be bounced at admission, not after a queue drain.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	start := time.Now()
	out := s.Submit(ctx, "googlenet", m, core.MechMuLayer, "", 1)
	cancel()
	if !errors.Is(out.err, ErrDeadlineInfeasible) {
		t.Fatalf("infeasible request under load: %v", out.err)
	}
	if rt := time.Since(start); rt > 100*time.Millisecond {
		t.Fatalf("infeasible rejection took %v under load; want O(admission)", rt)
	}

	// Wave 2 at the top of the ladder: lows are shed, highs keep service.
	submit(PriorityHigh, 20)
	submit(PriorityLow, 20)
	wg.Wait()
	close(counts)

	byCode := map[int]int{}
	for c := range counts {
		byCode[c]++
	}
	if shed := s.mets.admissionRejects.With("priority_shed").Value(); shed < 20 {
		t.Fatalf("only %d low-priority sheds at ladder level 3, want all 20 (codes %v)", shed, byCode)
	}
	if up := s.mets.overloadSteps.With("up").Value(); up < int64(maxOverloadLevel) {
		t.Fatalf("only %d ladder step-ups recorded", up)
	}
	if byCode[200] < 220 { // every normal and every high must be served
		t.Fatalf("availability collapsed under soak: %v", byCode)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	if got := s.QueueDepth(); got != 0 {
		t.Fatalf("stranded queue entries after soak: %d", got)
	}
	leakDeadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+4 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines %d vs baseline %d: leak after soak drain", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOverloadSmokeSaturation is the overload acceptance smoke (make
// overload-smoke): ~4× offered load with stall and failure faults, the
// watchdog, retry budgets, and the brownout ladder all armed. The top
// priority class must keep ≥99% availability, low-priority work must be
// shed, watchdog trips must surface in metrics, and /statusz must show
// the overload state.
func TestOverloadSmokeSaturation(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		SoCs: []SoCSpec{
			// Four devices: a watchdog-tripped request can fail over twice
			// and still find a device its exclusion mask has not burned.
			{Name: "high", SoC: soc.Exynos7420, Workers: 2},
			{Name: "mid", SoC: soc.Exynos7880, Workers: 2},
		},
		QueueDepth:        256,
		TimeScale:         10, // googlenet ≈ 10.5ms (high class) wall per request
		MaxRetries:        4,
		FailThreshold:     8, // stall trips fail over; don't let them quarantine the pool
		QuarantineBackoff: 20 * time.Millisecond,
		Faults: map[string]faults.Config{"": {
			Seed:        17,
			FailRate:    0.0001,
			StallRate:   0.001,
			StallFactor: 100,
		}},
		Overload: OverloadConfig{
			DeadlineAdmission: true,
			WatchdogFactor:    8,
			QueueWaitP95:      5 * time.Millisecond,
			EvalEvery:         5 * time.Millisecond,
			Hold:              time.Minute,
			RetryRate:         200,
			RetryBurst:        50,
		},
	})

	var mu sync.Mutex
	sent := map[string]int{}
	ok := map[string]int{}
	var untyped []string
	var wg sync.WaitGroup
	drive := func(prio string, n int) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			resp, data := postInfer(t, ts.URL, InferRequest{
				Model: "googlenet", Priority: prio, TimeoutMS: 10_000,
			})
			mu.Lock()
			sent[prio]++
			switch resp.StatusCode {
			case http.StatusOK:
				ok[prio]++
			case http.StatusServiceUnavailable:
				if prio == "high" {
					t.Logf("high 503: %s", data)
				}
			default:
				untyped = append(untyped, fmt.Sprintf("%s: %d %s", prio, resp.StatusCode, data))
			}
			mu.Unlock()
		}
	}
	// Closed-loop at ~4× capacity: 8 client workers over 2 devices.
	const perWorker = 25
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go drive("high", perWorker)
		go drive("low", perWorker)
	}
	wg.Wait()

	for _, u := range untyped {
		t.Errorf("request ended untyped: %s", u)
	}
	availHigh := float64(ok["high"]) / float64(sent["high"])
	shedLow := sent["low"] - ok["low"]
	t.Logf("smoke: high %d/%d (%.3f), low %d/%d (%d shed)",
		ok["high"], sent["high"], availHigh, ok["low"], sent["low"], shedLow)
	if availHigh < 0.99 {
		t.Fatalf("top-priority availability %.3f under saturation, want >= 0.99", availHigh)
	}
	if shedLow == 0 {
		t.Fatal("no low-priority request was shed at ~4x offered load")
	}

	// All transitions visible: the exposition carries the overload level
	// and at least one ladder step, and /statusz reports the state.
	expo := readAll(t, ts.URL+"/metrics")
	for _, want := range []string{
		"mulayer_overload_level",
		`mulayer_overload_transitions_total{direction="up"}`,
		`mulayer_admission_rejects_total{reason="priority_shed"}`,
		"mulayer_watchdog_trips_total{proc=",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	st := srv.sched.OverloadStatus()
	if !st.Enabled || st.Level < overloadLevelShedLow || st.StepsUp < int64(maxOverloadLevel) {
		t.Fatalf("overload status does not reflect the saturation: %+v", st)
	}
}

// readAll GETs a URL and returns its body as a string.
func readAll(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
