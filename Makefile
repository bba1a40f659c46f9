# Tier-1 verification for the μLayer reproduction.
#
#   make ci          build + vet (with gofmt gate) + race tests + coverage gate + chaos + fuzz smoke
#   make test        fast test run (no race detector)
#   make race        race-enabled test run
#   make cover       coverage gates for the serving subsystem, the kernels,
#                    the planner and the executor
#   make chaos-smoke seeded fault-injection run under the race detector
#   make trace-smoke end-to-end tracing/observability run under the race detector
#   make overload-smoke saturation run with the full overload stack armed
#   make fleet-smoke three-backend fleet with a mid-run backend kill/restart
#   make chaos-fleet-smoke four-backend fleet under injected network gray faults
#   make cross       the gemm and nn tests on 386 (the portable Go tiles),
#                    vet on arm64, and no fused multiply-add in the amd64
#                    assembly or in arm64 or GOAMD64=v3 compiler output
#   make fuzz-smoke  10s-per-target fuzz pass over every fuzz corpus, plus
#                    the QUInt8 tiles' int32 wrap test at k past 2³²/255²
#   make bench-gemm  packed-vs-reference kernel benchmark -> BENCH_gemm.json
#   make bench-gemm-smoke CI-sized gemm bench run + schema validation
#   make serve       run the inference server on :8080
#   make load        drive a running server at 50 qps for 10s

GO ?= go

# Each fuzz target gets this much wall time in the smoke pass.
FUZZTIME ?= 10s
# internal/server statement coverage must not fall below this floor
# (measured 82.5% when the gate was introduced).
COVER_FLOOR ?= 75
# internal/gemm statement coverage floor (measured 94.2% when the
# packed/tiled kernels landed).
GEMM_COVER_FLOOR ?= 88
# internal/frontend statement coverage floor (measured 89.5% when the
# gray-failure stack landed).
FRONTEND_COVER_FLOOR ?= 80
# internal/breaker statement coverage floor (measured 100.0% when the
# shared circuit breaker was extracted).
BREAKER_COVER_FLOOR ?= 90
# internal/partition and internal/exec statement coverage floors (measured
# 93.7% and 91.1% when the two- and three-processor split paths merged).
PARTITION_COVER_FLOOR ?= 88
EXEC_COVER_FLOOR ?= 84

.PHONY: ci build vet cross test race cover chaos-smoke trace-smoke overload-smoke fleet-smoke chaos-fleet-smoke fuzz-smoke bench-gemm bench-gemm-smoke serve load

ci: build vet cross race cover chaos-smoke trace-smoke overload-smoke fleet-smoke chaos-fleet-smoke fuzz-smoke bench-gemm-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# amd64 runs the AVX2 or SSE2 tiles (internal/gemm/tile_amd64.s); every
# other architecture runs the portable Go tiles the amd64 tests compare
# them against. 386 binaries run on an amd64 host, so that build's tests
# run those tiles for real; arm64 is type- and vet-checked. The arm64
# compiler fuses an unconverted a*b + c into one FMADD, and the amd64
# compiler into one VFMADD once GOAMD64=v3 allows FMA, skipping the
# product's rounding, so kernels, plans and sim_* figures would differ
# between builds in the last bits: every float product feeding an add is
# written float32(a*b) or float64(a*b). The last three steps fail when
# the hand-written amd64 assembly, the arm64 compiler's output or the
# GOAMD64=v3 compiler's output holds a fused multiply-add.
FUSED_AMD64 = VFMADD|VFMSUB|VFNMADD|VFNMSUB
cross:
	GOARCH=386 $(GO) test -count=1 ./internal/gemm ./internal/nn
	GOARCH=arm64 $(GO) vet ./internal/gemm ./internal/nn
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
	check ./internal/server/ $(COVER_FLOOR) && check ./internal/gemm/ $(GEMM_COVER_FLOOR) && check ./internal/frontend/ $(FRONTEND_COVER_FLOOR) && check ./internal/breaker/ $(BREAKER_COVER_FLOOR) && \
	check ./internal/partition/ $(PARTITION_COVER_FLOOR) && check ./internal/exec/ $(EXEC_COVER_FLOOR)

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
	$(GO) test ./internal/f16 -run='^$$' -fuzz='^FuzzFromFloat32$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/f16 -run='^$$' -fuzz='^FuzzArithmetic$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzDecodeInferRequest$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzDecodeInferRequestRef$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz='^FuzzOverloadConfig$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults -run='^$$' -fuzz='^FuzzFaultConfig$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/faults/netfaults -run='^$$' -fuzz='^FuzzNetFaultConfig$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzF32$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzF16GEMM$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzQGEMM$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gemm -run='^$$' -fuzz='^FuzzConvPack$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/nn -run='^$$' -fuzz='^FuzzOutputStage$$' -fuzztime=$(FUZZTIME)
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

# Single-thread packed/tiled kernel throughput vs the naive reference
# loops on model-zoo GEMM shapes; writes BENCH_gemm.json.
bench-gemm:
	$(GO) run ./cmd/mulayer-bench -gemm

# CI-sized run: scaled-down shapes to a temp file, schema-validate both
# the fresh run and the committed trajectory.
bench-gemm-smoke:
	$(GO) run ./cmd/mulayer-bench -gemm -gemm-short -gemm-out /tmp/BENCH_gemm_smoke.json
	$(GO) run ./cmd/mulayer-bench -gemm-verify /tmp/BENCH_gemm_smoke.json
	$(GO) run ./cmd/mulayer-bench -gemm-verify BENCH_gemm.json

serve:
	$(GO) run ./cmd/mulayer-serve

load:
	$(GO) run ./cmd/mulayer-load -qps 50 -duration 10s
