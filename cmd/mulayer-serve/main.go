// Command mulayer-serve runs the μLayer inference server: an HTTP JSON
// API over a pool of simulated SoC devices with predictor-guided request
// scheduling, bounded-queue admission control, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	mulayer-serve                                  # :8080, 2×high + 2×mid
//	mulayer-serve -addr :9000 -socs high=4,mid=2
//	mulayer-serve -queue 64 -timeout 500ms -timescale 1
//	mulayer-serve -max-batch 8 -batch-wait 2ms     # dynamic micro-batching
//	mulayer-serve -faults 'fail=0.1,seed=42'       # chaos: 10% kernel failures
//	mulayer-serve -faults 'high:die=0.01,proc=gpu' # kill high-end GPUs slowly
//	mulayer-serve -overload 'admit=on,watchdog=8,queue-wait=50ms,retry-rate=5'
//
// Endpoints:
//
//	POST /v1/infer    {"model":"googlenet","mechanism":"mulayer","soc":"high","timeout_ms":500}
//	                  replies carry X-Mulayer-Checksum: crc32c=... over the
//	                  exact body so proxies can verify end-to-end integrity
//	GET  /v1/models   loaded models, mechanisms, SoC classes
//	GET  /healthz     liveness (always ok while the process runs)
//	GET  /readyz      readiness and load signal: 503 while draining or all devices
//	                  dead; queue pressure, predicted wait, per-device health (JSON)
//	GET  /statusz     queue/backlog/served/health per device, latency
//	                  percentiles, predictor drift, tracing state (JSON)
//	GET  /metrics     Prometheus text format
//	GET  /debug/traces       index of recent request traces (JSON)
//	GET  /debug/traces/{id}  one trace, Chrome Trace Event Format (Perfetto)
//
// With -trace-sample F the server records every Fth-fraction request's
// span tree (admission → batch window → device queue → plan → execute,
// plus per-kernel simulated-time spans) into a bounded ring served at
// /debug/traces; -trace-slow D additionally captures and logs any request
// slower than D regardless of sampling; -trace-ring N bounds the ring.
// -debug-addr :6060 serves net/http/pprof on a separate listener. See
// docs/observability.md.
//
// With -timescale T each device stays busy for simulatedLatency/T of wall
// time per inference, so offered load saturates the pool the way it would
// saturate the modeled hardware; -timescale 0 disables pacing.
//
// With -max-batch N > 1 the scheduler coalesces same-model requests that
// arrive within -batch-wait of each other into one fused batched
// execution (up to N rows), which amortizes kernel launches and weight
// reads; -max-batch 1 serves every request individually.
//
// With -faults the scheduler injects deterministic, seeded faults into the
// simulated devices (kernel failures, stalls, permanent processor deaths,
// panics) and the fault-tolerance layer — failover with retries, device
// quarantine with half-open probes, degraded replanning around dead
// processors — handles them; see docs/serving.md. The spec is
// semicolon-separated per-class blocks of k=v pairs
// ("[class:]fail=0.1,stall=0.05,stallx=10,die=0.01,panic=0.01,seed=42,
// proc=gpu,max=100"); a block without a class applies to every class.
// -fail-threshold, -quarantine-backoff, and -max-retries tune the circuit
// breaker.
//
// With -overload the server protects itself under sustained saturation:
// admit=on rejects requests whose predicted completion cannot meet their
// deadline (and sheds queue-aged work at dispatch), watchdog=F fails any
// kernel that runs past F× its predicted time into the failover path,
// retry-rate=R caps failover retries per model class fleet-wide, and
// queue-wait=DUR arms the brownout ladder (shrink batch windows → stop
// tracing → shed "low"-priority requests) driven by the recent queue-wait
// p95 with hysteresis. See docs/serving.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mulayer/internal/faults"
	"mulayer/internal/server"
	"mulayer/internal/soc"
)

// keys lists a name table's names, sorted, for help texts and errors.
func keys[V any](m map[string]V) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// parseSoCs parses "high=4,mid=2"; a class without a count gets 2
// workers ("high,mid"), and an empty spec leaves the server's default
// pool.
func parseSoCs(spec string) ([]server.SoCSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var out []server.SoCSpec
	for _, part := range strings.Split(spec, ",") {
		name, cnt, hasCnt := strings.Cut(strings.TrimSpace(part), "=")
		build, ok := soc.Classes[name]
		if !ok {
			return nil, fmt.Errorf("unknown SoC class %q (want %s)", name, keys(soc.Classes))
		}
		workers := 2
		if hasCnt {
			n, err := strconv.Atoi(cnt)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad worker count %q for %s", cnt, name)
			}
			workers = n
		}
		out = append(out, server.SoCSpec{Name: name, SoC: build, Workers: workers})
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mulayer-serve: ")
	addr := flag.String("addr", ":8080", "listen address")
	socs := flag.String("socs", "high=2,mid=2", "device pool: class[=workers][,...] (classes: high, mid, npu; workers default 2)")
	queue := flag.Int("queue", 256, "bounded queue depth (admitted but unfinished requests)")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline (client deadlines are capped at 30s)")
	timescale := flag.Float64("timescale", 10, "device pacing: simulated latency / timescale of wall time per inference (0 = no pacing)")
	maxBatch := flag.Int("max-batch", 8, "max rows fused into one batched execution (1 = no batching)")
	batchWait := flag.Duration("batch-wait", 2*time.Millisecond, "how long an open batch window waits for more same-model requests")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on shutdown")
	faultSpec := flag.String("faults", "", "fault injection spec: [class:]fail=R,stall=R,stallx=F,die=R,panic=R,seed=N,proc=cpu|gpu|npu,max=N blocks joined by ';' (empty = off)")
	overloadSpec := flag.String("overload", "", "overload protection spec: admit=on,watchdog=F,queue-wait=DUR,eval=DUR,hold=DUR,retry-rate=R,retry-burst=N (empty = off)")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive device failures before quarantine")
	quarBackoff := flag.Duration("quarantine-backoff", 2*time.Second, "first quarantine duration (doubles per re-quarantine, capped at 30s)")
	maxRetries := flag.Int("max-retries", 2, "failover retries per request after a device failure (negative = none)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests traced into /debug/traces (0 = off, 1 = all)")
	traceSlow := flag.Duration("trace-slow", 0, "always trace and log requests slower than this wall latency (0 = off)")
	traceRing := flag.Int("trace-ring", 64, "in-memory ring capacity of recent traces")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = off)")
	flag.Parse()

	specs, err := parseSoCs(*socs)
	if err != nil {
		log.Fatal(err)
	}
	faultCfgs, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	overloadCfg, err := server.ParseOverloadSpec(*overloadSpec)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Addr:              *addr,
		SoCs:              specs,
		QueueDepth:        *queue,
		DefaultTimeout:    *timeout,
		TimeScale:         *timescale,
		MaxBatch:          *maxBatch,
		BatchWait:         *batchWait,
		DrainTimeout:      *drain,
		Faults:            faultCfgs,
		FailThreshold:     *failThreshold,
		QuarantineBackoff: *quarBackoff,
		MaxRetries:        *maxRetries,
		TraceSample:       *traceSample,
		TraceSlow:         *traceSlow,
		TraceRing:         *traceRing,
		Overload:          overloadCfg,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		// pprof on its own mux and port: profiling stays reachable under
		// load shedding and is never exposed on the serving address.
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("serving on %s (pool %s, queue %d, timescale %g, max-batch %d, batch-wait %v)",
		*addr, *socs, *queue, *timescale, *maxBatch, *batchWait)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received, draining (budget %v)...", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Print("drained cleanly")
}
