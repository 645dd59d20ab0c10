GO ?= go

SCHED_PKGS := ./internal/sched/... ./internal/deque/... ./internal/loop/...

STRESS_PATTERN := TestBorrow|TestCancel|TestPanickingOwner|TestDemandRetiredOnPark|TestDemandQuiesces|TestMeetDemand|TestParkingRetains|TestParkUnpark|TestForErr|TestForEachErr|TestForCtx|TestPanicPropagation|TestStealHalf|TestStealBack|TestRangeSlotAbandon|TestTakeGuided|TestNested|TestGate|TestConcurrentIndependentLoops|TestCrossLoopCancelStress|TestTryForBackpressure|TestForDegradesInline|TestMetricsConcurrentStress|TestStealWakeChaining|TestTryStealPrefersLocal|TestHierarchicalRangeSteal

# Packages carrying seeded golden datasets (testdata/golden_*.json).
GOLDEN_PKGS := ./internal/sim/ ./internal/nas/

.PHONY: check race repobench stress lint protodoc servertest golden golden-regen repro

# Every registered schedlint analyzer; `make lint` fails if a
# registration regression drops one.
LINT_ANALYZERS := 7

## check: gofmt, vet, build and test everything (tier-1 gate)
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

## lint: vet plus the module's own concurrency-invariant analyzers
## (atomicmix, cacheline, lockorder, loopcapture, looperr, noalloc,
## protocol — see cmd/schedlint). Asserts the registered-analyzer count
## first, so a registration regression fails loudly instead of silently
## checking less.
lint:
	$(GO) vet ./...
	@n=$$($(GO) run ./cmd/schedlint -list | wc -l); \
	if [ "$$n" -ne "$(LINT_ANALYZERS)" ]; then \
		echo "lint: expected $(LINT_ANALYZERS) registered analyzers, schedlint -list reports $$n" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/schedlint ./...

## protodoc: regenerate the protocol tables in DESIGN.md from the
## //sched:protocol annotations (checked in CI by TestProtodocInSync)
protodoc:
	$(GO) run ./cmd/schedlint -protodoc DESIGN.md ./...

## race: race-detect the scheduler hot path and the metrics plane
## (includes the stress tests), and the IS ranking round, whose segments
## write disjoint rows and whose prefix ranges write disjoint columns of
## one histogram slab
race:
	$(GO) test -race -count=1 $(SCHED_PKGS) ./internal/metrics/
	$(GO) test -race -count=1 -run 'TestIS|TestNPBIS' ./internal/nas/

## stress: race-detect the borrow-protocol, cancellation,
## error-propagation, steal-path, nested-loop and metrics-plane stress
## tests (public API package included)
stress:
	$(GO) test -race -count=1 -run '$(STRESS_PATTERN)' . $(SCHED_PKGS) ./internal/metrics/

## golden: run the seeded golden-run regression tests — simulator policy
## runs (the 4×8 paper grid plus the scaled 8×8/8×32 victim-policy
## grids) and NAS kernel outputs must match testdata/golden_*.json bit
## for bit (a policy or numerics change must regenerate them
## deliberately; -update merges by run key, so extending a grid never
## silently invalidates previously pinned rows)
golden:
	$(GO) test -count=1 -run TestGolden $(GOLDEN_PKGS)

## golden-regen: regenerate the golden datasets after a deliberate
## policy or numerics change; commit the diff with the change itself
golden-regen:
	$(GO) test -count=1 -run TestGoldenEquivalence -update $(GOLDEN_PKGS)
	$(GO) test -count=1 -run TestGolden $(GOLDEN_PKGS)

## repro: regenerate the paper-reproduction artifacts under out/
## (untracked; see EXPERIMENTS.md for the committed summary)
repro:
	mkdir -p out
	$(GO) run ./cmd/paperrepro -html out/report.html | tee out/paperrepro_output.txt

## repobench: run the repository benchmark (BENCHMARK.json), the repo's
## one performance measurement — one workload with WORKLOAD=<name>, else
## all four; prints every metric, no gate (compare two commits by
## interleaved runs, see benchmark/README.md)
REPOBENCH_WORKLOADS := iter_fine skew_coarse nas_suite serve_mixed
SEED ?= 1
repobench:
	@for w in $(or $(WORKLOAD),$(REPOBENCH_WORKLOADS)); do \
		$(GO) run ./benchmark -workload $$w -seed $(SEED) || exit 1; \
	done

## servertest: smoke-test the multi-tenant serving example — self-driving
## load run with a concurrent giant batch loop; exits non-zero if the
## service collapses (zero throughput, unbounded P99, goroutine blow-up)
servertest:
	$(GO) run ./examples/server -bench -duration 3s -clients 8 -giant
