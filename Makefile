# GO-SAMOA — reproduction of "SAMOA: Framework for Synchronisation
# Augmented Microprotocol Approach" (IPDPS 2004). Stdlib-only Go.

GO ?= go

.PHONY: all build vet samoa-vet test race race-contend socket-tests node-demo bench bench-core bench-gate bench-pair bench-ledger eval eval-quick eval-json fuzz fuzz-smoke explore chaos chaos-net examples clean

all: build vet samoa-vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static microprotocol- and concurrency-contract checking (cmd/samoa-vet,
# DESIGN.md §9, §14): footprint / readonly / nestediso / blocking /
# routecycle / lockorder / atomics / ignores over the repo's own code.
# Zero findings is the merge bar; deliberate exceptions carry a
# //samoa:ignore <check> — rationale, and the ignores check audits those.
samoa-vet:
	$(GO) run ./cmd/samoa-vet ./internal/... ./examples/... ./cmd/...

test:
	$(GO) test ./...

# Full suite under the race detector (slower; what CI should run), then
# the site pump's worker-reuse and stop-while-blocked tests five times.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run 'TestPumpReusesWorkers|TestStopWithHandOffBlocked' ./internal/gc

# Short-form contention suite (DESIGN.md §11) under the race detector:
# the sharded-admission race/differential tests and the cancellable-wait
# (Deadline/Cancel) tests, ten times each, plus one timed pass of
# each Contention* benchmark shape. CI runs this on every push.
race-contend:
	$(GO) test -race -run 'Sharded|Differential|ExploreReachesFastPath|Deadline|Cancel' ./internal/cc -count=10
	$(GO) test -race -run '^$$' -bench 'Contention' -benchtime 200x .

# Real-socket substrate (DESIGN.md §12) under the race detector: the
# backend-agnostic transport conformance suite against simnet AND udpnet,
# the udpnet framing/crash/restart tests, the kvstore cluster over real
# loopback sockets, the 3-process samoa-node integration test, and the
# site pump's worker-reuse and stop-while-blocked tests (five runs each).
# Tests skip (with a reason) where loopback UDP is unavailable.
socket-tests:
	$(GO) test -race -count=1 ./internal/transport/... ./cmd/samoa-node
	$(GO) test -race -count=1 -run UDPCluster ./internal/kvstore
	$(GO) test -race -count=5 -run 'TestPumpReusesWorkers|TestStopWithHandOffBlocked' ./internal/gc

# 3-process replicated-KV demo on loopback: boots three samoa-node
# processes on fixed ports and drives them with the built-in client.
node-demo:
	sh scripts/node-demo.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Core/cc hot-path microbenchmarks only, repeated for stable comparisons:
#   make bench-core > old.txt; ...change...; make bench-core > new.txt
#   benchstat old.txt new.txt
bench-core:
	$(GO) test -run '^$$' -bench 'TriggerSealed|SpawnComplete|ContentionDisjoint' -count=10 -benchmem .

# The performance gate (BENCHMARK.json, benchmark/README.md): all six
# workloads, untraced end-to-end metrics plus the traced per-layer ledger.
# The benchmark is a nested module outside ./...; test it with
# `go test -C benchmark ./...`.
bench-gate:
	bash benchmark/run.sh

# Paired parent/change runs of one workload (choosing-metrics §8):
#   make bench-pair W=kv_write_udp [PAIRS=10] [BASE=HEAD~1]
bench-pair:
	bash scripts/bench-pair.sh $(W) $(PAIRS)

# The per-layer ledger of one workload, parent beside change: one traced
# run per side, every per-layer metric as parent / change / Δ %:
#   make bench-ledger W=kv_write_sim [BASE=HEAD~1] [SEED=1]
bench-ledger:
	bash scripts/bench-ledger.sh $(W)

# The evaluation tables of EXPERIMENTS.md.
eval:
	$(GO) run ./cmd/samoa-bench

eval-quick:
	$(GO) run ./cmd/samoa-bench -quick

# Machine-readable results: one BENCH_E<k>.json per experiment.
eval-json:
	$(GO) run ./cmd/samoa-bench -json

# Short fuzzing passes over the decode paths.
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzReaderNeverPanics -fuzztime 20s
	$(GO) test ./internal/gc -fuzz FuzzDecodeMessages -fuzztime 20s

# What CI runs on every push: 30 seconds over every fuzz target,
# including the trace checker vs its brute-force serial-orders oracle.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReaderNeverPanics -fuzztime 30s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzRoundTrip -fuzztime 30s
	$(GO) test ./internal/gc -run '^$$' -fuzz FuzzDecodeMessages -fuzztime 30s
	$(GO) test ./internal/gc -run '^$$' -fuzz FuzzSiteSurvivesGarbageDatagrams -fuzztime 30s
	$(GO) test ./internal/gc -run '^$$' -fuzz FuzzDatagramFrames -fuzztime 30s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzChecker -fuzztime 30s
	$(GO) test ./internal/transport/udpnet -run '^$$' -fuzz FuzzFrameDecode -fuzztime 30s

# DEEP=1 turns explore and the chaos targets into their nightly sweeps:
# CHAOS_DEEP/EXPLORE_DEEP raise the seed count and search budget, the
# sweep gets 30 minutes, and the chaos storms run under -race.
ifeq ($(DEEP),1)
DEEP_ENV := CHAOS_DEEP=1 EXPLORE_DEEP=1
DEEP_FLAGS := -timeout 30m
DEEP_RACE := -race
endif

# Deterministic schedule exploration (internal/sched). `explore` is the
# quick pass: random walk + PCT + shallow DFS over every isolating
# controller, plus the None negative control. With DEEP=1 it adds the
# nightly-CI search: bounded DFS with a much larger depth and run budget.
explore:
	$(DEEP_ENV) $(GO) test ./internal/cctest -run 'TestExplore' -v $(DEEP_FLAGS)

# In-process storms (internal/chaos, DESIGN.md §10 and §15): randomized
# panics, delays and deadlines against every isolating controller, and
# the same storm racing live Replace swaps on every swap-safe controller;
# then probe for wedges, leaked version slots, isolation violations,
# lost updates and an unbalanced epoch-drain ledger. `chaos` is the
# per-push run; DEEP=1 sweeps 40 seeds per controller under -race.
# Reproduce one failure with CHAOS_SEED=<n> make chaos.
chaos:
	$(DEEP_ENV) $(GO) test $(DEEP_RACE) ./internal/chaos -run 'TestChaos|TestSwapStorm' -count=1 -v $(DEEP_FLAGS)

# Distributed chaos (internal/chaos dchaos, DESIGN.md §13): seeded storms
# of transport crash/restarts, majority-preserving partitions and message
# chaos over 5-site replicated clusters, on the deterministic simulator
# AND real UDP sockets, checked against distributed invariants (post-heal
# convergence, no acked-write loss, no split-brain, wedge probes, clean
# drain). `chaos-net` is the per-push smoke run (3 seeds per backend);
# DEEP=1 sweeps the 20-seed acceptance battery under -race.
# Reproduce one failure with CHAOS_SEED=<n> make chaos-net.
chaos-net:
	$(DEEP_ENV) $(GO) test $(DEEP_RACE) ./internal/chaos -run TestDistributedStorm -count=1 -v $(DEEP_FLAGS)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/viewchange
	$(GO) run ./examples/rollback
	$(GO) run ./examples/transport
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/groupcomm

clean:
	$(GO) clean ./...
