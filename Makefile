GO ?= go

.PHONY: all build test check check-imports lint fmt vet bench bench-smoke bench-json bench-diff bench-ci fuzz-smoke smoke-daemon chaos clean

# Where `make bench-json` records the benchmark suite (bumped per PR so the
# repo keeps its performance trajectory).
BENCH_OUT ?= BENCH_pr9.json
# The previous recording, for `make bench-diff`.
BENCH_PREV ?= BENCH_pr8.json

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

# The whole static story in one command: go vet plus the fpvalint suite
# (determinism, allocation-free annotations, context flow, API boundary,
# lostcancel, nilness). See DESIGN.md, "Static invariants".
lint:
	$(GO) run ./cmd/fpvalint ./...

# The public-API boundary: cmd/ and examples/ must import only repro/fpva.
# Kept as an alias; the rule lives in the fpva/apiboundary analyzer now.
check-imports:
	$(GO) run ./cmd/fpvalint -vet=false -only apiboundary ./...

# Full local gate: formatting, static analysis (vet + fpvalint), tests,
# and a one-shot campaign benchmark smoke so the Sec. IV engine is
# exercised end to end.
check: fmt lint test bench-smoke

bench-smoke:
	$(GO) test -run '^$$' -bench Campaign -benchtime 1x .

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Record the whole benchmark suite as test2json lines so the repo carries
# its own performance trajectory (see EXPERIMENTS.md).
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -json . > $(BENCH_OUT)

# Per-benchmark ns/op and allocs/op deltas between two recordings.
bench-diff:
	$(GO) run scripts/benchdiff.go $(BENCH_PREV) $(BENCH_OUT)

# CI regression gate: re-run a fast benchmark subset and fail on a >30%
# ns/op regression against the committed baseline recording. The baseline
# is machine-dependent, so this is a coarse tripwire for order-of-magnitude
# regressions, not a precision gate; re-record BENCH_OUT when the committed
# numbers drift from the CI runner class. Time-based -benchtime keeps the
# sub-millisecond campaign benchmarks from being sampled so few times that
# a single scheduler hiccup trips the gate, while the ILP benchmarks still
# finish in a couple of iterations.
bench-ci:
	$(GO) test -run '^$$' -bench 'Campaign_1Fault$$|Table1_5x5|Ablation_PathILPIterative$$|Ablation_CutILP$$' \
		-benchtime 0.3s -benchmem -json . > /tmp/bench-ci.json
	$(GO) run scripts/benchdiff.go -max-ns-regress 30 $(BENCH_OUT) /tmp/bench-ci.json

# Short runs of every fuzz target: the solver stack, the wire codecs and
# the daemon's submit decoding. Seeds and the committed corpus under
# testdata/fuzz always run as part of `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSolve -fuzztime 10s ./internal/lp
	$(GO) test -run '^$$' -fuzz FuzzModelSolve -fuzztime 10s ./internal/ilp
	$(GO) test -run '^$$' -fuzz FuzzDecodePlan -fuzztime 10s ./fpva
	$(GO) test -run '^$$' -fuzz FuzzDecodeDiagnosis -fuzztime 10s ./fpva
	$(GO) test -run '^$$' -fuzz FuzzDecodeArray -fuzztime 10s ./fpva
	$(GO) test -run '^$$' -fuzz FuzzSubmit -fuzztime 10s ./cmd/fpvad

# End-to-end daemon smoke: boot fpvad, submit a 4x4 generate job, stream
# progress, fetch the plan, prove the upload round trip is bit-identical,
# kill -9 a -cache-dir daemon and prove the restart serves the same
# bytes, and exercise the admission controls (401/429).
smoke-daemon:
	./scripts/fpvad-smoke.sh

# Fault-injection suite under the race detector: the durable plan
# store's crash/corruption/EIO tests (including the kill -9 child-
# process rounds), plus the service-level store and admission tests.
chaos:
	$(GO) test -race -count 2 ./internal/store
	$(GO) test -race -run 'TestCacheDir|TestStoreDegraded|TestMaxPending|TestJobTimeout' ./fpva
	$(GO) test -race -run 'TestAuth|TestRateLimit|TestQueueFull|TestHealthz|TestConfig|TestValidate' ./cmd/fpvad

clean:
	$(GO) clean ./...
