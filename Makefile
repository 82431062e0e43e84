GO ?= go

.PHONY: all build test check check-imports check-fpvaload lint fmt vet loc bench bench-smoke bench-json bench-diff bench-ci fuzz-smoke smoke-daemon chaos clean

# Where `make bench-json` records the benchmark suite (bumped per PR so the
# repo keeps its performance trajectory).
BENCH_OUT ?= BENCH_pr25.json
# The previous recording, for `make bench-diff`.
BENCH_PREV ?= BENCH_pr24.json
# The committed baseline `make bench-ci` gates against. It has its own
# variable so that bumping BENCH_OUT does not move the CI gate.
BENCH_BASE ?= BENCH_pr9.json

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Non-test Go lines: the size measure the ROADMAP tracks. Tests, testdata
# and the benchmark module (cmd/fpvaload) are left out.
loc:
	@git ls-files '*.go' | grep -v -e _test.go -e testdata -e cmd/fpvaload | xargs cat | wc -l

# The whole static story in one command: go vet plus the fpvalint suite
# (determinism, allocation-free annotations, context flow, API boundary,
# lostcancel, nilness). See DESIGN.md, "Static invariants".
lint:
	$(GO) run ./cmd/fpvalint ./...

# The public-API boundary: cmd/ and examples/ must import only repro/fpva.
# Kept as an alias; the rule lives in the fpva/apiboundary analyzer now.
check-imports:
	$(GO) run ./cmd/fpvalint -vet=false -only apiboundary ./...

# The benchmark (cmd/fpvaload) is a module of its own, so build, test and
# lint above skip it. Vet it and run its short tests here, so a change to
# the public API cannot break the benchmark unnoticed.
check-fpvaload:
	cd cmd/fpvaload && $(GO) vet . && $(GO) test -short .

# Full local gate: formatting, static analysis (vet + fpvalint), tests,
# the benchmark module, and a one-shot campaign benchmark smoke so the
# Sec. IV engine is exercised end to end.
check: fmt lint test check-fpvaload bench-smoke

bench-smoke:
	$(GO) test -run '^$$' -bench Campaign -benchtime 1x .

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Record the benchmarks of every package as test2json lines so the repo
# carries its own performance trajectory (see EXPERIMENTS.md). The first
# line is a test2json output event naming the host: core count,
# GOMAXPROCS and CPU model. No two packages share a benchmark name, so
# scripts/benchdiff.go can key rows by name alone.
bench-json:
	@printf '{"Action":"output","Output":"host: nproc=%s GOMAXPROCS=%s cpu=%s\\n"}\n' \
		"$$(nproc)" "$${GOMAXPROCS:-$$(nproc)}" \
		"$$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" > $(BENCH_OUT)
	$(GO) test -run '^$$' -bench . -benchmem -json ./... >> $(BENCH_OUT)

# Per-benchmark ns/op and allocs/op deltas between two recordings.
bench-diff:
	$(GO) run scripts/benchdiff.go $(BENCH_PREV) $(BENCH_OUT)

# CI regression gate: re-run a fast benchmark subset and fail on a >30%
# ns/op regression against the committed baseline recording. The baseline
# is machine-dependent, so this is a coarse tripwire for order-of-magnitude
# regressions, not a precision gate; re-record BENCH_BASE when the
# committed numbers drift from the CI runner class. Time-based -benchtime
# keeps the sub-millisecond campaign benchmarks from being sampled so few
# times that a single scheduler hiccup trips the gate, while the ILP
# benchmarks still finish in a couple of iterations.
bench-ci:
	$(GO) test -run '^$$' -bench 'Campaign_1Fault$$|Table1_5x5|Ablation_PathILPIterative$$|Ablation_CutILP$$' \
		-benchtime 0.3s -benchmem -json . > /tmp/bench-ci.json
	$(GO) run scripts/benchdiff.go -max-ns-regress 30 $(BENCH_BASE) /tmp/bench-ci.json

# Short runs of every fuzz target: the solver stack, the wire codecs, the
# daemon's submit decoding and the worker frame reader. Seeds and the
# committed corpus under testdata/fuzz always run as part of `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSolve -fuzztime 10s ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzModelSolve -fuzztime 10s ./internal/ilp
	$(GO) test -run '^$$' -fuzz FuzzDecodePlan -fuzztime 10s ./fpva
	$(GO) test -run '^$$' -fuzz FuzzDecodeDiagnosis -fuzztime 10s ./fpva
	$(GO) test -run '^$$' -fuzz FuzzDecodeArray -fuzztime 10s ./fpva
	$(GO) test -run '^$$' -fuzz FuzzSubmit -fuzztime 10s ./cmd/fpvad
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/workerpool

# End-to-end daemon smoke: boot fpvad, submit a 4x4 generate job, stream
# progress, fetch the plan, prove the upload round trip is bit-identical,
# kill -9 a -cache-dir daemon and prove the restart serves the same
# bytes, and exercise the admission controls (401/429).
smoke-daemon:
	./scripts/fpvad-smoke.sh

# Fault-injection suite under the race detector: the durable plan
# store's crash/corruption/EIO tests (including the kill -9 child-
# process rounds), the service-level store and admission tests, the
# job service under seeded random interleavings of submit, cancel,
# forget and wait at 1, 2 and 4 processors (a new seed per run),
# repeated bursts of campaign, verify and diagnose jobs racing to build
# and extend one shared compiled entry, the block sweep's workers
# claiming blocks against the scalar oracle at 1, 2 and 4 processors,
# and the branch-and-bound's worker-count contract at 1, 2 and 4
# processors, where incumbents arrive in a different order every run.
chaos:
	$(GO) test -race -count 2 ./internal/store
	$(GO) test -race -run 'TestCacheDir|TestStoreDegraded|TestMaxPending|TestJobTimeout' ./fpva
	$(GO) test -race -count 10 -cpu 1,2,4 -run TestServiceInterleavings ./fpva
	$(GO) test -race -count 10 -run 'TestSharedCompileBurst' ./fpva
	$(GO) test -race -count 10 -cpu 1,2,4 -run 'TestCampaignEngineDifferential|TestDetectsBatchMatchesScalarRandomized|TestCampaignOnTrialsFinalCall' ./internal/sim
	$(GO) test -race -count 10 -cpu 1,2,4 -run 'TestWorkersBitIdentical|TestParallelMatchesSerialOnKnapsack|TestILPGolden' ./internal/ilp
	$(GO) test -race -count 10 -cpu 1,2,4 -timeout 30m -run 'TestSolverWorkersBitIdenticalEndToEnd|TestILPGolden' ./internal/core
	$(GO) test -race -run 'TestAuth|TestRateLimit|TestQueueFull|TestHealthz|TestConfig|TestValidate' ./cmd/fpvad

clean:
	$(GO) clean ./...
