# Tier-1 verification for the μLayer reproduction.
#
#   make ci          build (root and perfbench modules) + vet (with gofmt gate) + race tests + coverage gate + chaos + fuzz + bench smoke
#   make test        fast test run (no race detector)
#   make race        race-enabled test run
#   make cover       coverage gates for the serving tiers (server, frontend,
#                    breaker, dispatch), the fault injectors, the kernels,
#                    the quantizer, the layers, the planner, the executor
#                    and the runtime
#   make chaos-smoke seeded fault-injection run under the race detector
#   make trace-smoke end-to-end tracing/observability run under the race detector
#   make overload-smoke saturation run with the full overload stack armed
#   make fleet-smoke three-backend fleet with a mid-run backend kill/restart
#   make chaos-fleet-smoke four-backend fleet under injected network gray faults
#   make cross       the gemm, quant, nn and cpu tests on 386 (the portable
#                    Go tiles and scalar output stages), vet on arm64, and
#                    no fused multiply-add in the amd64 assembly or in arm64
#                    or GOAMD64=v3 compiler output
#   make fuzz-smoke  10s-per-target fuzz pass over every fuzz corpus, plus
#                    the QUInt8 tiles' int32 wrap test at k past 2³²/255²
#   make bench-smoke every Go benchmark in the root module, run once
#   make profile-infer CPU profile of 600 warm infer-coop inferences, as a
#                    pprof -top table of kernel and glue shares
#   make serve       run the inference server on :8080
#   make load        drive a running server at 50 qps for 10s

GO ?= go

# Each fuzz target gets this much wall time in the smoke pass.
FUZZTIME ?= 10s
# internal/server statement coverage must not fall below this floor
# (measured 91.1% when placement and settlement each got one function).
COVER_FLOOR ?= 85
# internal/gemm statement coverage floor (measured 99.1% when each GEMM
# call went to one goroutine and one tile level per host).
GEMM_COVER_FLOOR ?= 95
# internal/quant statement coverage floor (measured 93.2% when the output
# stages gained their AVX2 bodies).
QUANT_COVER_FLOOR ?= 90
# internal/nn statement coverage floor (measured 81.1% when quantized
# max pooling moved to masked vector passes).
NN_COVER_FLOOR ?= 81
# internal/frontend statement coverage floor (measured 89.9% when its
# latency windows moved to internal/dispatch).
FRONTEND_COVER_FLOOR ?= 85
# internal/dispatch statement coverage floor (measured 100.0% when it
# gained the shared latency window).
DISPATCH_COVER_FLOOR ?= 95
# internal/faults statement coverage floor (measured 93.0% when the
# network fault injector folded into it).
FAULTS_COVER_FLOOR ?= 90
# internal/breaker statement coverage floor (measured 100.0% when the
# shared circuit breaker was extracted).
BREAKER_COVER_FLOOR ?= 90
# internal/partition statement coverage floor (measured 93.7% when the
# two- and three-processor split paths merged).
PARTITION_COVER_FLOOR ?= 88
# internal/exec statement coverage floor (measured 94.4% when activations
# moved into the planned, pooled arena).
EXEC_COVER_FLOOR ?= 92
# internal/core statement coverage floor (measured 97.2% when the plan
# cache folded into the runtime's one memo).
CORE_COVER_FLOOR ?= 95

.PHONY: ci build vet cross test race cover chaos-smoke trace-smoke overload-smoke fleet-smoke chaos-fleet-smoke fuzz-smoke bench-smoke profile-infer serve load

ci: build vet cross race cover chaos-smoke trace-smoke overload-smoke fleet-smoke chaos-fleet-smoke fuzz-smoke bench-smoke

# perfbench is its own module (the benchmark harness), so ./... above
# skips it; building and vetting it here makes a change to an internal
# API it uses fail make ci instead of the next benchmark run. Its one
# package is a command, so the build writes to /dev/null rather than
# leaving a binary in the tree.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# amd64 hosts with AVX2 run the assembly tiles and packs
# (internal/gemm/tile_amd64.s), output stages
# (internal/quant/quant_amd64.s) and max-pooling passes
# (internal/nn/pool_amd64.s); every other host runs the portable Go
# bodies the amd64 tests compare them against. 386 binaries run on an
# amd64 host, so that build's tests run those for real; arm64 is type-
# and vet-checked. The arm64
# compiler fuses an unconverted a*b + c into one FMADD, and the amd64
# compiler into one VFMADD once GOAMD64=v3 allows FMA, skipping the
# product's rounding, so kernels, plans and sim_* figures would differ
# between builds in the last bits: every float product feeding an add is
# written float32(a*b) or float64(a*b). The last three steps fail when
# any hand-written amd64 file under internal (the gemm tiles and packs,
# the quant output stages, the max-pooling passes, the cpu feature
# check), the arm64 compiler's output or the GOAMD64=v3 compiler's
# output holds a fused multiply-add.
FUSED_AMD64 = VFMADD|VFMSUB|VFNMADD|VFNMSUB
cross:
	GOARCH=386 $(GO) test -count=1 ./internal/gemm ./internal/quant ./internal/nn ./internal/cpu
	GOARCH=arm64 $(GO) vet ./internal/gemm ./internal/quant ./internal/nn ./internal/cpu
	GOARCH=arm64 $(GO) build ./...
	@if grep -rnE '$(FUSED_AMD64)' --include='*.s' internal; then \
		echo 'cross: the amd64 assembly above fuses multiply-adds; keep one multiply and one add (DESIGN.md §8)' >&2; exit 1; fi
	@if GOARCH=arm64 $(GO) build -gcflags=-S ./... 2>&1 | grep -E '\s(FMADD|FMSUB|FNMADD|FNMSUB)'; then \
		echo 'cross: arm64 fuses the multiply-adds above; convert each product (DESIGN.md §8)' >&2; exit 1; fi
	@if GOARCH=amd64 GOAMD64=v3 $(GO) build -gcflags=-S ./... 2>&1 | grep -E '\s($(FUSED_AMD64))'; then \
		echo 'cross: GOAMD64=v3 fuses the multiply-adds above; convert each product (DESIGN.md §8)' >&2; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	@check() { \
		out=$$($(GO) test -cover $$1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage figure for $$1" >&2; exit 1; fi; \
		awk -v p="$$pct" -v f="$$2" -v pkg="$$1" 'BEGIN { \
			if (p + 0 < f + 0) { printf "cover: %s %.1f%% is below the %s%% floor\n", pkg, p, f; exit 1 } \
			printf "cover: %s %.1f%% (floor %s%%)\n", pkg, p, f }'; \
	}; \
	check ./internal/server/ $(COVER_FLOOR) && check ./internal/gemm/ $(GEMM_COVER_FLOOR) && check ./internal/quant/ $(QUANT_COVER_FLOOR) && check ./internal/nn/ $(NN_COVER_FLOOR) && check ./internal/frontend/ $(FRONTEND_COVER_FLOOR) && check ./internal/breaker/ $(BREAKER_COVER_FLOOR) && \
	check ./internal/dispatch/ $(DISPATCH_COVER_FLOOR) && check ./internal/faults/ $(FAULTS_COVER_FLOOR) && \
	check ./internal/partition/ $(PARTITION_COVER_FLOOR) && check ./internal/exec/ $(EXEC_COVER_FLOOR) && \
	check ./internal/core/ $(CORE_COVER_FLOOR)

# Seeded chaos run: 160 requests against a faulty four-device pool under
# the race detector. Fails on any escaped panic, untyped error, stranded
# queue entry, or leaked goroutine.
chaos-smoke:
	$(GO) test ./internal/server -race -count=1 -run='^TestChaosSeededFaults$$' -v

# Traced load against a live pool under the race detector: checks the
# /debug/traces ring, a Perfetto-loadable Chrome trace with per-layer
# kernel spans, the predictor-drift histogram, and /statusz summaries.
trace-smoke:
	$(GO) test ./internal/server -race -count=1 -run='^TestTraceSmokeServeLoad$$' -v

# Saturation at ~4× offered load with stalls and failures injected, the
# watchdog, retry budgets, and the brownout ladder armed — all under the
# race detector. Fails when the top priority class drops below 99%
# availability, no low-priority work is shed, or any request ends with an
# untyped error.
overload-smoke:
	$(GO) test ./internal/server -race -count=1 -run='^TestOverloadSmokeSaturation$$' -v

# Go only accepts one -fuzz pattern per invocation, so smoke each target
# separately; -run=^$ skips the regular tests on each pass.
fuzz-smoke:
	$(GO) test ./internal/quant -run='^$$' -fuzz='^FuzzChooseParams$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant -run='^$$' -fuzz='^FuzzRequantize$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant -run='^$$' -fuzz='^FuzzRoundingDivideByPOT$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant -run='^$$' -fuzz='^FuzzRequantizeStrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/quant -run='^$$' -fuzz='^FuzzHalfSums$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/f16 -run='^$$' -fuzz='^FuzzFromFloat32$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/f16 -run='^$$' -fuzz='^FuzzArithmetic$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzDecodeInferRequest$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzDecodeInferRequestRef$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzOverloadConfig$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults -run='^$$' -fuzz='^FuzzFaultConfig$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults -run='^$$' -fuzz='^FuzzNetFaultConfig$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzF32$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzF16GEMM$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzQGEMM$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzConvPack$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/nn -run='^$$' -fuzz='^FuzzOutputStage$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/nn -run='^$$' -fuzz='^FuzzMaxPoolQ$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -count=1 -run='^TestQGEMMSWARLaneBound$$'

# Fleet chaos smoke: three live backends behind the frontend under
# sustained load and the race detector; one backend is crash-killed
# mid-run and restarted. Fails when availability drops below 99%, any
# failure is routing-attributable, or the revived backend does not
# rejoin.
fleet-smoke:
	$(GO) test ./internal/frontend -race -count=1 -run='^TestFleetSmokeKillRestart$$' -v

# Gray-failure chaos smoke: four live backends behind the frontend on a
# fault-injected network (one gray-slow backend, one corrupting, lossy
# default path) under sustained load and the race detector. Fails when
# availability drops below 99%, any corrupt reply reaches a client, or
# the slow backend is not ejected and then readmitted after the network
# heals.
chaos-fleet-smoke:
	$(GO) test ./internal/frontend -race -count=1 -run='^TestChaosFleetGrayFailures$$' -v

# One iteration of every Go benchmark in the root module (the gemm, nn,
# quant, f16 and server-decode kernels, the root figure and serving
# benchmarks): fails when any of them panics or calls b.Fatal. Timing
# them is `go test -bench` on its own (DESIGN.md §8).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The profile the kernel PRs quote: BenchmarkInferCoop (perfbench's
# infer-coop model, mechanism and SoC at GOMAXPROCS=1) run PROFILE_RUNS
# times under -cpuprofile, then pprof's flat and cumulative shares of
# the warm runs (the benchmark labels them; warm.pprof keeps only their
# samples, so set-up and calibration are left out of every share). The
# test binary and profiles stay in PROFILE_DIR for other pprof views.
PROFILE_DIR ?= .profile
PROFILE_RUNS ?= 600
profile-infer:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkInferCoop$$' -benchtime $(PROFILE_RUNS)x \
		-o $(PROFILE_DIR)/mulayer.test -cpuprofile $(PROFILE_DIR)/infer.pprof .
	$(GO) tool pprof -proto -tagfocus=infer=warm $(PROFILE_DIR)/mulayer.test $(PROFILE_DIR)/infer.pprof > $(PROFILE_DIR)/warm.pprof
	$(GO) tool pprof -top -nodecount=60 $(PROFILE_DIR)/mulayer.test $(PROFILE_DIR)/warm.pprof

serve:
	$(GO) run ./cmd/mulayer-serve

load:
	$(GO) run ./cmd/mulayer-load -qps 50 -duration 10s
