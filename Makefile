GO ?= go

.PHONY: build test race fuzz chaos bench bench-inspector bench-serve bench-profile bench-scale bench-chain bench-chaos check-inspector check-exec check-serve check-profile check-scale check-chain check-chaos

# FUZZTIME bounds each fuzz target's wall-clock budget (go test -fuzztime).
FUZZTIME ?= 15s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also repeats the packed rung's determinism tests — a slot shared between
# two w-partitions, or a fold that depends on who ran what, shows up as a race
# or as differing bits only when the timing cooperates — and the concurrent
# opens over one Matrix, whose memoized forms every operation shares.
race:
	$(GO) test -race . ./internal/exec/... ./internal/core/... ./internal/dag/... ./internal/lbc/... ./internal/cache/... ./internal/combos/... ./internal/kernels/... ./internal/relayout/... ./internal/serve/... ./internal/telemetry/...
	$(GO) test -race -count=5 -run 'TestPackedScatter|TestScatterArmedFromPoolWidth' ./internal/exec/
	$(GO) test -race -count=5 -run 'TestConcurrentSessionsMatchReference|TestScatterOperationCleanAfterCancelStorm|TestConcurrentOpensShareMatrixMemos' .

# fuzz smoke-runs the native Go fuzz targets on the two untrusted-input
# parsers: the binary schedule loader and the Matrix Market reader. Each
# target gets FUZZTIME of coverage-guided input generation on top of its
# committed seed corpus.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSchedule$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME) ./internal/sparse

# bench regenerates BENCH_exec.json: compiled-vs-legacy executor timings and
# spin-barrier throughput on fixed-seed synthetic fixtures.
bench:
	$(GO) run ./cmd/spbench -mode exec -out BENCH_exec.json

# bench-inspector regenerates BENCH_inspector.json: per-stage inspection
# timings (reference vs serial vs parallel), byte-identity verdicts, and the
# executor-economics break-even run counts.
bench-inspector:
	$(GO) run ./cmd/spbench -mode inspector -out BENCH_inspector.json

# check-inspector re-measures and fails (exit 1) if any headline number
# regressed more than 25% against the committed BENCH_inspector.json.
check-inspector:
	$(GO) run ./cmd/spbench -mode inspector -check -out BENCH_inspector.json

# check-exec does the same for BENCH_exec.json: compiled and packed executor
# ns/run must stay within 25% of the committed numbers.
check-exec:
	$(GO) run ./cmd/spbench -mode exec -check -out BENCH_exec.json

# bench-serve regenerates BENCH_serve.json: cold vs warm first-solve latency
# through the content-addressed schedule cache, warm steady-state solves vs
# the inspect-per-request baseline, concurrent serving throughput/latency
# through the bounded server, and the thundering-herd duplicate-inspection
# count. The run itself hard-fails if the warm solve is not >= 10x faster
# than inspect-per-request or if a cold-start herd runs a duplicate
# inspection.
bench-serve:
	$(GO) run ./cmd/spbench -mode serve -out BENCH_serve.json

# check-serve re-measures and fails (exit 1) if the warm solve or p99 served
# latency regressed more than 25% against the committed BENCH_serve.json.
check-serve:
	$(GO) run ./cmd/spbench -mode serve -check -out BENCH_serve.json

# bench-profile regenerates BENCH_profile.json: the hot-path execution
# profiler's per-s-partition barrier-wait / worker-imbalance breakdown and the
# cost of the instrumentation itself. The run hard-fails if a recorder-enabled
# warm solve is more than 5% slower than the recorder-disabled one — the
# telemetry overhead budget (DESIGN.md §13).
bench-profile:
	$(GO) run ./cmd/spbench -mode profile -out BENCH_profile.json

# check-profile re-measures (enforcing the 5% overhead budget) and fails if
# the recorder-disabled solve regressed more than 25% against the committed
# BENCH_profile.json.
check-profile:
	$(GO) run ./cmd/spbench -mode profile -check -out BENCH_profile.json

# bench-scale regenerates BENCH_scale.json: the executor scaling curve over
# worker counts 1..NumCPU — static packed execution vs work-stealing packed
# execution with a first-touch layout, with per-width barrier cost, steal
# rate, and parallel efficiency. The run itself hard-fails if the two
# executors' outputs are not bit-identical at any width (DESIGN.md §14).
bench-scale:
	$(GO) run ./cmd/spbench -mode scale -out BENCH_scale.json

# check-scale re-measures and fails (exit 1) if stealing is slower than the
# static executor beyond a 10% noise allowance at any width, if outputs
# diverged, or if the stealing time regressed more than 25% against the
# committed BENCH_scale.json.
check-scale:
	$(GO) run ./cmd/spbench -mode scale -check -out BENCH_scale.json

# bench-chain regenerates BENCH_chain.json: k-kernel chain composition — the
# same sweep chain fully composed vs pairwise-fused vs unfused, with exact
# barriers-per-pass counts and the composed inspection's break-even run count,
# plus the end-to-end fused-iteration PCG solver against the pairwise-fused
# host-orchestrated one. The run itself hard-fails if any fused execution is
# not bit-identical to its reference or if composition added barriers
# (DESIGN.md §15).
bench-chain:
	$(GO) run ./cmd/spbench -mode chain -out BENCH_chain.json

# check-chain re-measures and fails (exit 1) if the composed chain does not
# synchronize strictly less than pairwise, if fused PCG loses to the pairwise
# solver beyond a 10% noise allowance, if any bit-identity gate tripped, or if
# a fused time regressed more than 25% against the committed BENCH_chain.json.
check-chain:
	$(GO) run ./cmd/spbench -mode chain -check -out BENCH_chain.json

# chaos runs the deterministic fault-injection scenario matrix (DESIGN.md
# §16) without touching the committed baseline: seeded cancel storms,
# injected panics and breakdowns, a barrier-watchdog trip, corrupt/truncated
# schedule containers, and an overload burst — every run must end in its
# typed error or a bit-identical result, under a per-scenario stuck-run
# watchdog, with cancellation-polling overhead hard-gated at 5%.
chaos:
	$(GO) run ./cmd/spbench -mode chaos -out /dev/null

# bench-chaos runs the same matrix and regenerates BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/spbench -mode chaos -out BENCH_chaos.json

# check-chaos re-runs the matrix and fails (exit 1) if any scenario loses
# bit-identity or the cancellation-polling overhead exceeds its 5% budget.
check-chaos:
	$(GO) run ./cmd/spbench -mode chaos -check -out BENCH_chaos.json
