GO ?= go

.PHONY: all build test vet fmt-check detlint ci examples bench-smoke bench race bench-cluster bench-fleet bench-chaos bench-kernel cover fuzz lines

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet covers both modules: bench/ is its own module (compiled against
# core, cluster and workload), so the root `go vet ./...` skips it. The
# root module is vetted for 386 too, so code or a test that only
# compiles with a 64-bit int (a constant past math.MaxInt32) fails here
# and not only in CI's 386 job.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	cd bench && $(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# detlint is the determinism lint: it fails on wall-clock reads
# (time.Now/time.Since), global math/rand use, and map-iteration
# ordering hazards in internal/ — the constructs that silently break
# byte-reproducible output. Its unused pass then fails on any top-level
# declaration in non-test internal/ code that no non-test code of the
# module (bench/ included) refers to. Exemptions are //detlint:allow
# annotations with a written reason.
detlint:
	$(GO) run ./cmd/detlint

# ci is the tier-1 gate: formatting, vet, determinism lint, build, tests,
# the examples, and the serving benchmark's smoke test.
ci: fmt-check vet detlint build test examples bench-smoke

# examples runs every program under examples/ to completion, so the
# library facade they drive cannot rot behind a build that only compiles
# them. Each is a small deterministic run.
examples:
	@for e in examples/*/; do \
		echo "== $$e"; \
		$(GO) run ./$$e || exit 1; \
	done

# bench-smoke runs the serving benchmark's own tests: every workload at
# 1% scale with its correctness checks. bench/ is a separate module, so
# the root `go test ./...` never reaches it.
bench-smoke:
	cd bench && $(GO) test ./...

# lines prints the non-test Go lines of each package directory, then the
# module total, bench/ left out (it is its own module): the size the
# simplicity work is measured by.
lines:
	@files=$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print); \
	awk '{ d = FILENAME; sub("/[^/]*$$", "", d); n[d]++ } END { for (d in n) printf "%6d %s\n", n[d], d }' $$files | sort -k2; \
	cat $$files | awk 'END { printf "%6d total\n", NR }'

# cover runs the whole suite with coverage and prints the per-function
# summary plus the total; cover.out is left behind for `go tool cover
# -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -20
	@$(GO) tool cover -func=cover.out | grep total:

# fuzz runs every fuzz target for 30 s each: the pooled timed-message
# path, the arrival-trace reader, and the text forms of a fault plan
# (-chaos) and an interconnect (-interconnect). go test fuzzes one target
# per run, so each -fuzz pattern is anchored to one name. Outside the
# tier-1 gate; `go test ./...` runs only the targets' seed corpora.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzPooledMessageDeterminism$$' -fuzztime 30s
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzParseFaultPlan$$' -fuzztime 30s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzParseInterconnect$$' -fuzztime 30s

# race runs the whole test suite under the race detector: the parallel
# run engine (internal/runner, the experiments fan-out) must stay clean
# here. Byte-identical output is a plain test, not a shell gate: every
# experiment is compared against its golden file in
# internal/experiments/testdata/golden at parallel 1 and 8, so this run
# also checks those paths under the detector.
race:
	$(GO) test -race ./...

# bench compiles and executes every benchmark exactly once (no test
# functions), so the benchmark harness cannot rot, and pipes the output
# through benchguard, which fails loudly if any benchmark baselined in
# BENCH_fleet.json, BENCH_chaos.json, BENCH_kernel.json, or
# BENCH_cluster.json regresses past its recorded allocs/op or bytes/op. Wall time is advisory: an
# ns_factor breach prints a WARN line but never fails the run.
# BenchmarkPostMsg, BenchmarkGateWake and BenchmarkSketchObserve run at
# their recorded -benchtime 20x instead, in a run of their own: a single
# iteration of them sometimes catches a stray runtime allocation, which
# doubles PostMsg's bytes/op and fails the other two's 0 allocs/op.
bench:
	{ $(GO) test -bench . -skip '^(BenchmarkPostMsg|BenchmarkGateWake|BenchmarkSketchObserve)$$' -benchtime 1x -run '^$$' ./... ; \
	  $(GO) test -bench '^(BenchmarkPostMsg|BenchmarkGateWake|BenchmarkSketchObserve)$$' -benchtime 20x -run '^$$' . ; } | $(GO) run ./cmd/benchguard -baseline BENCH_fleet.json -baseline BENCH_chaos.json -baseline BENCH_kernel.json -baseline BENCH_cluster.json

# bench-cluster reproduces (and gates) the BENCH_cluster.json
# measurement: the zero-latency multi-node serving path at 1 and 4
# nodes, then, in a run of its own at -benchtime 2000000x, one affinity
# routing decision over the 100-node fleet (BenchmarkAffinityPick, gated
# at 0 allocs/op). `make bench` (and the CI bench job) already executes
# these once; this target is the recorded baseline's regeneration
# recipe.
bench-cluster:
	{ $(GO) test -bench BenchmarkClusterServe -benchtime 20x -run '^$$' . ; \
	  $(GO) test -bench '^BenchmarkAffinityPick$$' -benchtime 2000000x -run '^$$' . ; } | $(GO) run ./cmd/benchguard -baseline BENCH_cluster.json

# bench-fleet reproduces (and gates) the BENCH_fleet.json measurement:
# the 100-node / 1M-request fleet hot path in sketch + arena mode, and
# the same fleet's set-up alone (BenchmarkFleetBuild). The guard fails
# if allocs/op or bytes/op regress past the recorded baseline; after an
# intentional change, paste the new numbers into BENCH_fleet.json.
bench-fleet:
	$(GO) test -bench 'BenchmarkFleetServe|BenchmarkFleetBuild' -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchguard -baseline BENCH_fleet.json

# bench-chaos reproduces (and gates) the BENCH_chaos.json measurement:
# the fault-injected serving path — fail-stop crash/redeliver and the
# gray-failure mitigation stack (health, breaker, hedging). `make
# bench` (and the CI bench job) already executes these once; this
# target is the recorded baseline's regeneration recipe.
bench-chaos:
	$(GO) test -bench BenchmarkChaosServe -benchtime 1x -run '^$$' . | $(GO) run ./cmd/benchguard -baseline BENCH_chaos.json

# bench-kernel reproduces (and gates) the BENCH_kernel.json measurement:
# the event heap at depth (BenchmarkTimerChurn: 1,000 pending timers
# under cancel/re-arm churn), the single-node serve loop, the scheduler
# inner loop, class sampling through a board's guide table
# (BenchmarkSampleType), a warm dependency-aware victim selection
# (BenchmarkDepAwareEviction) and the exact latency summary at 10k and
# 200k samples (BenchmarkSummarize) once each; then, in a run of their
# own at -benchtime 20x, the classic event loop (BenchmarkSimKernel),
# the pooled timed-message path in isolation (BenchmarkPostMsg),
# wake-ups due now behind a 64-deep heap (BenchmarkGateWake) and the
# sketch's bucket lookup (BenchmarkSketchObserve). A single
# iteration of a benchmark of a few KB, the first of its process above
# all, sometimes catches a stray runtime allocation that multiplies its
# bytes/op. `make bench` (and the CI bench job) already executes these;
# this target is the recorded baseline's regeneration recipe.
bench-kernel:
	{ $(GO) test -bench 'BenchmarkTimerChurn|BenchmarkPoissonServe$$|BenchmarkMinMaxAssign|BenchmarkSampleType|BenchmarkDepAwareEviction|BenchmarkSummarize' -benchtime 1x -run '^$$' . ; \
	  $(GO) test -bench '^(BenchmarkSimKernel|BenchmarkPostMsg|BenchmarkGateWake|BenchmarkSketchObserve)$$' -benchtime 20x -run '^$$' . ; } | $(GO) run ./cmd/benchguard -baseline BENCH_kernel.json
