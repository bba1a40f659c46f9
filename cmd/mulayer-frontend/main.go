// Command mulayer-frontend runs the μLayer fleet frontend: an HTTP
// proxy that routes /v1/infer over many mulayer-serve backends with
// per-model affinity routing, predicted-load spill, hedged requests,
// and transport-failure failover.
//
// Usage:
//
//	mulayer-frontend -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	mulayer-frontend -backends-file fleet.txt          # SIGHUP re-reads it
//	mulayer-frontend -hedge-budget 0.1 -max-attempts 3
//
// Endpoints:
//
//	POST /v1/infer        proxied to the routed backend (same body/reply)
//	GET  /v1/models       proxied from a healthy backend
//	GET  /healthz         liveness
//	GET  /readyz          503 until at least one backend is healthy
//	GET  /statusz         fleet view: per-backend health, load, hedging (JSON)
//	GET  /metrics         mulayer_frontend_* Prometheus text format
//	GET  /admin/backends  backend registry snapshot (JSON)
//	POST /admin/backends  {"action":"add|drain|undrain|remove","url":"..."}
//	POST /admin/reload    re-read -backends-file (add new, drain delisted)
//
// Routing: per-model rendezvous hashing concentrates each model on a
// stable few replicas (plan-cache and batch-fusion affinity); when the
// affinity choice's predicted load — the backend-reported predicted
// wait from each /readyz probe plus a per-outstanding-request charge —
// exceeds the least-loaded replica's by both -spill-factor and 10ms,
// the request spills. After a p95-derived hedge delay a budgeted second
// attempt races the next-ranked replica; transport failures fail over;
// backend 503s pass through untouched. See docs/serving.md.
//
// Gray failures: a backend whose served-latency p95 exceeds
// -eject-factor times the fleet median for -eject-hold is ejected from
// rotation and readmitted via the quarantine half-open probe; replies
// failing the X-Mulayer-Checksum / body-length integrity check are
// never delivered — the leg fails over like any transport error.
// -net-faults arms a deterministic network fault injector on the
// backend transport for chaos drills (see internal/faults).
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mulayer/internal/faults"
	"mulayer/internal/frontend"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mulayer-frontend: ")
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (http://host:port)")
	backendsFile := flag.String("backends-file", "", "file with one backend URL per line ('#' comments); SIGHUP or POST /admin/reload re-reads it")
	probeEvery := flag.Duration("probe-every", 500*time.Millisecond, "health/load probe cadence per backend")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failures before a backend quarantines")
	quarBackoff := flag.Duration("quarantine-backoff", time.Second, "first quarantine duration (doubles per re-quarantine)")
	maxAttempts := flag.Int("max-attempts", 3, "attempts per request across backends on transport failure")
	hedgeBudget := flag.Float64("hedge-budget", 0.1, "fraction of requests that may hedge (0 disables)")
	spillFactor := flag.Float64("spill-factor", 0, "affinity yields to least-load when its predicted load exceeds this ratio (0 = default 2.0)")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on shutdown")
	ejectFactor := flag.Float64("eject-factor", 0, "eject a backend whose latency p95 exceeds this multiple of the fleet median (0 = default 3.0, negative disables)")
	ejectHold := flag.Duration("eject-hold", 2*time.Second, "how long the outlier condition must persist before ejection")
	netFaultSpec := flag.String("net-faults", "", "network fault injection spec: [target=host:port,]lat=R,latms=D,dialto=R,hangms=D,reset=R,drop=R,trunc=R,corrupt=R,seed=N,max=N blocks joined by ';' (empty = off)")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 && *backendsFile == "" {
		log.Fatal("no backends: set -backends and/or -backends-file")
	}

	// The tuned transport is built explicitly so -net-faults can wrap it
	// in the deterministic network fault injector (chaos drills against
	// a live fleet).
	var transport http.RoundTripper = frontend.DefaultTransport()
	if *netFaultSpec != "" {
		cfgs, err := faults.ParseNetSpec(*netFaultSpec)
		if err != nil {
			log.Fatal(err)
		}
		transport = faults.NewTransport(cfgs, transport)
		log.Printf("network fault injection armed: %d target configs", len(cfgs))
	}

	fe, err := frontend.New(frontend.Config{
		Addr:              *addr,
		Backends:          urls,
		BackendsFile:      *backendsFile,
		ProbeEvery:        *probeEvery,
		FailThreshold:     *failThreshold,
		QuarantineBackoff: *quarBackoff,
		MaxAttempts:       *maxAttempts,
		HedgeBudget:       *hedgeBudget,
		SpillFactor:       *spillFactor,
		DrainTimeout:      *drain,
		Transport:         transport,
		EjectFactor:       *ejectFactor,
		EjectHold:         *ejectHold,
	}, log.Default())
	if err != nil {
		log.Fatal(err)
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			added, drained, err := fe.Reload()
			if err != nil {
				log.Printf("reload: %v", err)
				continue
			}
			log.Printf("reload: %d added, %d drained", added, drained)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- fe.ListenAndServe() }()
	log.Printf("fronting %d backends on %s (probe %v, hedge budget %g)",
		len(urls), *addr, *probeEvery, *hedgeBudget)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received, draining (budget %v)...", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := fe.Shutdown(shutCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Print("drained cleanly")
}
