GO ?= go

.PHONY: build test race fuzz bench orphans

# FUZZTIME bounds each fuzz target's wall-clock budget (go test -fuzztime).
FUZZTIME ?= 15s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also repeats the packed rung's determinism tests — a slot shared between
# two w-partitions, or a fold that depends on who ran what, shows up as a race
# or as differing bits only when the timing cooperates — the held pool and the
# worker set a solve keeps (one per solve, held, closed however it ends), the
# concurrent opens over one Matrix, whose memoized forms every operation
# shares, the inspector's GOMAXPROCS sweeps, since every inspection fans out
# over min(Threads, GOMAXPROCS) workers, and the admission queue's bound under
# callers that arrive together.
race:
	$(GO) test -race . ./internal/exec/... ./internal/core/... ./internal/dag/... ./internal/lbc/... ./internal/cache/... ./internal/combos/... ./internal/kernels/... ./internal/relayout/... ./internal/serve/... ./internal/telemetry/... ./internal/chaos/... ./internal/par/...
	$(GO) test -race -count=5 -run 'TestPackedScatter|TestScatterArmedFromPoolWidth|TestHeld' ./internal/exec/
	$(GO) test -race -count=5 -run 'TestConcurrentSessionsMatchReference|TestScatterOperationCleanAfterCancelStorm|TestConcurrentOpensShareMatrixMemos|TestRunsLeaveNoWorkers|TestSolveKeepsOneWorkerSet|TestSolveClosesItsWorkerSet|TestIdleWorkerSetsPinNothing' .
	$(GO) test -race -count=5 -run 'TestICOWorkersDeterministic|TestScheduleWorkersDeterministic|TestICOMatchesSeedCorpus' ./internal/core/ ./internal/lbc/
	$(GO) test -race -count=5 -run 'TestDoContextQueueBoundHoldsUnderConcurrentArrival' ./internal/serve/

# fuzz smoke-runs the native Go fuzz targets: the two untrusted-input parsers
# (the binary schedule loader and the Matrix Market reader) and the re-layout
# (random packable chains over random patterns: Build, CheckExclusive and the
# packed runner against the one-thread walk). Each target gets FUZZTIME of
# coverage-guided input generation on top of its committed seed corpus.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSchedule$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run '^$$' -fuzz '^FuzzRelayout$$' -fuzztime $(FUZZTIME) ./internal/relayout

# bench runs the four BENCHMARK.json workloads once (bench/README.md), one
# JSON line each. To compare two commits, run each side several times into one
# file per side and then
#   .bench_build/bench --compare parent.jsonl change.jsonl
bench:
	bash bench/run.sh --seed 1 --out .bench_build/run.jsonl

# orphans fails when a package under internal/ is imported, directly or not, by
# no non-test file of the library, cmd/, examples/ or bench/: code nothing
# ships is code nothing measures. The one exception exists for its tests only:
#   chaos       the fault injectors; the scenario matrix in its tests drives them
# TestNoOrphanExports (orphans_test.go, also part of `go test ./...`) asks the
# same of every exported function and method, and TestNoDeadConfiguration of
# every exported struct field (set by no shipped code); their allow-lists carry
# reasons.
ORPHANS_OK := sparsefusion/internal/chaos
orphans:
	@used=$$( { $(GO) list -deps . ./cmd/... ./examples/... && (cd bench && $(GO) list -deps .); } | sort -u); \
	bad=; \
	for p in $$($(GO) list ./internal/...); do \
		case " $(ORPHANS_OK) " in *" $$p "*) continue;; esac; \
		echo "$$used" | grep -qx "$$p" || bad="$$bad $$p"; \
	done; \
	if [ -n "$$bad" ]; then echo "imported by no non-test file:$$bad" >&2; exit 1; fi
	$(GO) test -count=1 -run '^(TestNoOrphanExports|TestNoDeadConfiguration)$$' .
