# Developer entry points. `make check` is the full pre-merge gate, in order:
# fmt -> vet -> lint -> build -> test(-race) -> bench-check -> bench-short ->
# load-cert-short -> online-demo-short. Cheap textual checks run first,
# intellilint gates the project invariants before anything compiles twice,
# the race-enabled tests plus the benchmark module's own checks and a short
# benchmark pass close out correctness and gross performance regressions, a
# short load-certification sweep keeps the serving hot path honest, and a
# short online-learning drill keeps the drift/rollback loop honest.

GO ?= go

.PHONY: check fmt vet lint lint-fix-list build test bench-check bench bench-short bench-all bench-ann load-cert load-cert-short online-demo online-demo-short record-trace trajectory obs-demo swap-demo

check: fmt vet lint build test bench-check bench-short load-cert-short online-demo-short

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt required on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# intellilint (internal/lint): pooldiscipline, intoalias, maporder, nakedgo,
# errcheck. There is no lint-fix mode — every finding is either a real bug to
# fix by hand or a reviewed exception to annotate with
# `//lint:ignore <analyzer> <reason>` (the reason is mandatory).
lint:
	$(GO) run ./cmd/intellilint ./...

# Bare file:line per finding, for editor jump lists (vim -q, emacs grep-mode).
lint-fix-list:
	$(GO) run ./cmd/intellilint -format list ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# benchmark/ is a Go module of its own, so the targets above never compile
# it; its script runs gofmt, vet, its tests and intellilint over it.
bench-check:
	bash benchmark/check.sh

# One quick iteration of the parallel-scaling benchmarks; see EXPERIMENTS.md
# for the recorded sweep.
bench-short:
	$(GO) test -run xxx -bench 'BenchmarkParallel' -benchtime 1x .

# Memory-discipline benchmarks (matmul kernel, train step, serve path):
# writes BENCH_PR2.json with ns/op, B/op and allocs/op plus improvement
# ratios against the pre-optimization numbers in BENCH_PR2_BASELINE.json.
bench:
	$(GO) test -run xxx -bench PR2 -benchmem -benchtime 50x . ./internal/core | \
		$(GO) run ./cmd/benchjson -baseline BENCH_PR2_BASELINE.json -o BENCH_PR2.json \
		-note "in-place Into kernels + pooled/owned buffers"

# Every benchmark in the root package (parallel scaling + PR2), no JSON.
bench-all:
	$(GO) test -run xxx -bench . -benchmem .

# ANN retrieval benchmarks: recall@K-vs-latency curves for both backends
# against brute force at 10^5 and 10^6 tags, plus serve-path ns/op with
# retrieval on and off. Regenerates BENCH_PR7.json (the recorded artifact)
# and exits non-zero if the acceptance bars (>=10x serve speedup,
# recall@10 >= 0.95) are missed. ~15 min on one core — the 10^6 graph
# build is the long pole; pass a smaller -sizes for a quick look.
bench-ann:
	$(GO) run ./cmd/annbench -sizes 100000,1000000 -serve-tags 100000 -o BENCH_PR7.json

# Load certification (ROADMAP item 4): closed-loop sweep against an
# in-process intellitag-server clone (popularity bucket swapped to a freshly
# trained TagRec bundle mid-step 3), SLO gates per step, zero dropped
# requests certified across the rolling swap. Writes BENCH_LOAD_PR9.json —
# the recorded artifact — and exits non-zero if any gate fails.
load-cert:
	$(GO) run ./cmd/loadgen -model intellitag -steps 1,4,8,16 -duration 2s \
		-warmup 500ms -swap-step 3 -max-p99-ms 250 -min-qps 500 \
		-o BENCH_LOAD_PR9.json -note "closed-loop sweep, rolling swap on step 3"

# Sub-ten-second certification smoke for `make check` and CI: tiny sweep over
# the popularity model, swap on the last step, gates relaxed to catch only
# gross breakage (errors, drops, pathological p99).
load-cert-short:
	$(GO) run ./cmd/loadgen -model popularity -steps 1,4 -duration 500ms \
		-warmup 200ms -swap-step 2 -max-p99-ms 1000 \
		-o /tmp/intellitag-load-short.json -note "short certification smoke"

# Online-learning drill (ROADMAP item 3): frozen vs streaming-learner buckets
# over a world whose click process drifts mid-run — the online bucket
# fine-tunes on the live stream and recovers CTR — ending with a poison drill
# (garbage-label round → gate block → forced promotion → drift-monitor
# auto-rollback to last-known-good). Writes BENCH_ONLINE_PR10.json — the
# recorded artifact — and exits non-zero if any leg of the drill fails.
online-demo:
	$(GO) run ./cmd/simulate -online -days 10 -sessions 150 \
		-online-out BENCH_ONLINE_PR10.json

# Sub-five-second drill smoke for `make check` and CI: fewer days and
# sessions, same drift → adapt → poison → rollback sequence.
online-demo-short:
	$(GO) run ./cmd/simulate -online -days 6 -sessions 60 \
		-online-out /tmp/intellitag-online-short.json

# Record a deterministic httprr trace of held-out session traffic for replay
# in serving tests and `loadgen -trace`.
record-trace:
	$(GO) run ./cmd/simulate -model popularity -record /tmp/intellitag-session.httprr -record-sessions 5

# Merge every recorded BENCH artifact into one schema-checked trajectory;
# fails loudly on any malformed entry.
trajectory:
	$(GO) run ./cmd/benchjson -trajectory -o TRAJECTORY.json \
		BENCH_PR2.json BENCH_PR7.json BENCH_LOAD_PR9.json BENCH_ONLINE_PR10.json

# Live telemetry demo: run the simulator with the telemetry listener up, let
# traffic flow for a moment, dump /metrics and one sampled trace, then stop.
# The day count is deliberately huge — the run is killed, not finished.
obs-demo:
	@$(GO) build -o /tmp/intellitag-obs-demo ./cmd/simulate
	@/tmp/intellitag-obs-demo -model popularity -days 100000 -sessions 200 \
		-telemetry-addr 127.0.0.1:9477 -trace-sample 16 >/dev/null 2>&1 & \
	pid=$$!; \
	sleep 2; \
	echo "--- GET /metrics (mid-run) ---"; \
	curl -s http://127.0.0.1:9477/metrics; \
	echo "--- GET /debug/trace?limit=1 ---"; \
	curl -s 'http://127.0.0.1:9477/debug/trace?limit=1'; echo; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; true

# Zero-downtime hot-swap demo: train two model versions into a snapshot
# store (different seeds, so the rankings visibly differ), then run the
# simulator starting on version 1 with 3 replicas and roll to version 2
# live after day 2 — traffic keeps flowing across the flip, and the summary
# shows both versions served with every replica drained.
swap-demo:
	@rm -rf /tmp/intellitag-swap-demo && mkdir -p /tmp/intellitag-swap-demo
	@$(GO) build -o /tmp/intellitag-swap-demo/train ./cmd/tagrec-train
	@$(GO) build -o /tmp/intellitag-swap-demo/simulate ./cmd/simulate
	@echo "--- training snapshot version 1 ---"
	@/tmp/intellitag-swap-demo/train -fast -seed 1 -epochs 1 \
		-snapshots /tmp/intellitag-swap-demo/store 2>&1 | grep -E "committed|loss"
	@echo "--- training snapshot version 2 ---"
	@/tmp/intellitag-swap-demo/train -fast -seed 1 -epochs 2 \
		-snapshots /tmp/intellitag-swap-demo/store 2>&1 | grep -E "committed|loss"
	@echo "--- simulating: 3 replicas, rolling swap after day 2 ---"
	@/tmp/intellitag-swap-demo/simulate -fast -seed 1 -days 4 -sessions 80 \
		-replicas 3 -snapshots /tmp/intellitag-swap-demo/store \
		-swap-at-day 2 -swap-stagger 20ms
