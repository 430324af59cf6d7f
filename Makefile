# Tier-1 verification and developer entry points.

GO ?= go

.PHONY: build test test-short test-race bench bench-json bench-compare fuzz lint load-smoke contention-smoke platoon-smoke

build:
	$(GO) build ./...

# Tier-1: everything must pass, including the trained-model protocol tests.
test: build
	$(GO) test ./...

# Quick loop: skips tests that train models.
test-short:
	$(GO) test -short ./...

# Race-detector pass over the full tree. The protocol and transport layers
# are explicitly concurrent (retransmit timers, fault-injection goroutines),
# so this is part of tier-1, not an optional extra.
test-race:
	./scripts/test-race.sh

# Static analysis: go vet, formatting, and the repo's own vklint suite
# (internal/lint), which enforces the crypto/determinism/concurrency
# and secret-dataflow invariants DESIGN.md documents under "Enforced
# invariants". CI runs this same target; on failure it re-runs vklint
# with -json and uploads the findings as an artifact.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l . 2>/dev/null); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/vklint ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark, summarized as JSON (BENCH.json).
# CI's bench-smoke job uploads this per PR as a perf-trajectory artifact.
bench-json:
	./scripts/bench-json.sh

# Regression gate: run the gated scheme family at the baseline's
# 20-iteration benchtime (a single iteration is too noisy for a 10%
# threshold) and compare against the committed pre-fast-path baseline.
# Any BenchmarkScheme/* entry more than 10% slower than BENCH_seed.json
# fails the target (CI runs this in bench-smoke). Override the inputs:
# make bench-compare NEW=... BASE=...
NEW ?= BENCH_scheme.json
BASE ?= BENCH_seed.json
bench-compare:
	@test -f $(NEW) || BENCH_PATTERN='BenchmarkScheme$$' BENCH_TIME=20x ./scripts/bench-json.sh $(NEW)
	./scripts/bench-compare.sh $(NEW) $(BASE)

# Seed-corpus fuzz smoke: the wire formats (protocol envelope, server
# hello and group frame codecs, TCP frame decoder), the reconcilers'
# correction halves fed arbitrary peer code vectors (CS syndrome, AE
# code), the fast-inference numerics (GEMM kernels vs the naive
# multiply), the channel's cosine kernel (bit for bit vs math.Cos), its
# vector oscillator bank (bit for bit vs the per-term Cos sum), its
# decimal-log lanes and exact remainder (bit for bit vs math.Log10 and
# math.Mod), the LSTM step's activation and recurrence kernels (bit
# for bit vs Sigmoid/math.Tanh and AddMatVec), and the random stream's
# methods (bit for bit vs math/rand's Go 1 stream for the same seed).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 30s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz FuzzDecodeHello -fuzztime 30s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 30s ./internal/group/
	$(GO) test -run '^$$' -fuzz FuzzTCPFrameDecode -fuzztime 30s ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzCS$$' -fuzztime 30s ./internal/reconcile/
	$(GO) test -run '^$$' -fuzz '^FuzzAEAliceCorrect$$' -fuzztime 30s ./internal/reconcile/
	$(GO) test -run '^$$' -fuzz FuzzGEMM -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzCos$$' -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzOscBank$$' -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzLog10s$$' -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzMod$$' -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzActivations$$' -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzAddMatVecColMajor$$' -fuzztime 30s ./internal/mathx/
	$(GO) test -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 30s ./internal/rng/

# A small vkload run over real localhost TCP: 64 vehicles through the
# session manager with the training-free lora-key scheme. CI runs this
# as a serving-layer smoke; `go run ./cmd/vkload` alone drives the full
# 1000-vehicle default.
load-smoke:
	$(GO) run ./cmd/vkload -vehicles 64 -concurrency 16 -scheme lora-key \
		-windows 8 -ramp 0 -metrics

# A small fleet contending on one shared lora:// medium: every session
# crosses the simulated MAC (CAD, collisions, capture, hopping), so the
# vk_lora_* counters must come out non-zero. CI greps the metrics dump
# for exactly that, making the smoke an assertion rather than a demo.
contention-smoke:
	$(GO) run ./cmd/vkload -endpoint "lora://ci?channels=4&scale=5000" \
		-scheme lora-key -vehicles 12 -concurrency 12 -windows 16 \
		-ramp 0 -metrics

# One full platoon group-rekey session on a shared lora:// medium:
# concurrent pairwise establishment, an epoch-1 rekey sealed under the
# pairwise keys, two departures, and the epoch-2 survivor rekey. CI
# greps the -metrics dump for non-zero vk_group_* counters and stdout
# for "members agreeing on the final key: N/N" with equal counts,
# making the smoke an assertion rather than a demo.
platoon-smoke:
	$(GO) run ./cmd/vkload -platoon 8 -platoon-leaves 1,6 \
		-endpoint "lora://ci-platoon?channels=4" -scheme lora-key -metrics
