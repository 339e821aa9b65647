# Developer entry points. `make check` is what CI runs.

DUNE ?= dune
SMOKE_SCALE ?= 0.05
# Pinned seeds for the deterministic crash-equivalence sweep; override
# with RTS_FAULT_SEEDS=a,b,c to explore other trajectories.
RTS_FAULT_SEEDS ?= 11,23,47
# Pinned seeds for the networked-DT equivalence sweep (drop/dup/reorder
# fault trajectories); override with RTS_NET_SEEDS=a,b,c.
RTS_NET_SEEDS ?= 7,19,101
# Pinned seeds for the sharded-ingestion equivalence sweep (merged
# output vs unsharded, all executors); override with RTS_SHARD_SEEDS=a,b,c.
RTS_SHARD_SEEDS ?= 5,17,91
# Pinned seeds for the combined-fault serving soak (simultaneous storage
# crash/short-write/ENOSPC plans and network drop/dup/reorder, verified
# against the WAL oracle); override with RTS_SERVE_SEEDS=a,b,c.
RTS_SERVE_SEEDS ?= 3,13,29
# Pinned seeds for the replicated-serving failover soak (primary kill /
# wedge under combined storage+network faults, promoted log verified
# against the fault-free oracle); override with RTS_REPLICA_SEEDS=a,b,c.
RTS_REPLICA_SEEDS ?= 2,11,23
# Pinned seeds for the approximate-tier equivalence sweep (crprecis and
# heavy maturity logs held to "late subset of the exact baseline" on
# paper-style scenarios); override with RTS_APPROX_SEEDS=a,b,c.
RTS_APPROX_SEEDS ?= 7,21,63

.PHONY: all build lint test bench-smoke bench-gate check check-fault check-net \
        check-shard check-serve check-replica check-approx clean

all: build

build:
	$(DUNE) build @all

# Fast formatting/type gate: builds every module (including ones not yet
# linked into an executable) without running anything. CI runs this first
# and fails fast before spending minutes on the test matrix.
lint:
	$(DUNE) build @check
	@echo "lint: OK"

test: build
	$(DUNE) runtest

# Small-scale benchmark smoke in --json mode: exercises the traced
# scenario driver and the metrics plumbing end to end, then re-parses
# the BENCH_*.json output and enforces the DT message budget.
bench-smoke: build
	$(DUNE) exec bench/main.exe -- fig4 --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec bench/main.exe -- fig6 --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe BENCH_fig4.json BENCH_fig6.json

# The bench gate: run the three budgeted benchmarks at the smoke scale
# (batched ingestion, the shard k = 1/2/4/8 curve whose merged maturity
# log the bench itself asserts bit-identical to the unsharded run, and
# the approximate tier whose never-early and top-n verdicts it asserts),
# then validate all three documents against tools/budgets.json. Every
# gated number is deterministic per (scale, seed): work counters under
# their ceilings, allocated_words_per_element = 0 on every DT perf run,
# approx_bound_violations = 0. Prints one markdown drift table per
# document (budget / actual / headroom / drift / OK-LOOSE-OVER); wall
# clock is listed but never gated.
bench-gate: build
	$(DUNE) exec bench/main.exe -- perf --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec bench/main.exe -- shard --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec bench/main.exe -- approx --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe -- --budgets tools/budgets.json \
	  BENCH_perf.json BENCH_shard.json BENCH_approx.json

# Approximate-tier suite on its own: qcheck certified-bound containment
# and never-early properties against brute-force references, top-n
# threshold-search exactness, and the pinned-seed scenario sweep (every
# approximate maturity also matures in the exact baseline, no earlier).
# Its bench budgets are checked by bench-gate. CI runs this as a
# separate job on both compiler legs.
check-approx: build
	RTS_APPROX_SEEDS=$(RTS_APPROX_SEEDS) $(DUNE) exec test/test_approx.exe
	@echo "check-approx: OK"

# Fault-injection suite on its own: crash the durable engine at every op
# boundary (torn writes, bit flips, corrupt checkpoints) for the pinned
# seeds and assert the recovered maturity log is bit-identical to an
# uninterrupted run. CI runs this as a separate job.
check-fault: build
	RTS_FAULT_SEEDS=$(RTS_FAULT_SEEDS) $(DUNE) exec test/test_resilience.exe
	@echo "check-fault: OK"

# Networked-DT suite on its own: zero-fault parity, maturity-ordinal
# equivalence under lossy/reordering/duplicating links, the exhaustive
# drop-of-every-envelope-kind sweep and degradation behaviour, for the
# pinned seeds; then a bench net --json smoke whose net_* fields are
# re-validated. CI runs this as a separate job.
check-net: build
	RTS_NET_SEEDS=$(RTS_NET_SEEDS) $(DUNE) exec test/test_net.exe
	$(DUNE) exec bench/main.exe -- net --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe BENCH_net.json
	@echo "check-net: OK"

# Sharded-ingestion suite on its own: rendezvous-hash properties, the
# executor pool contract, randomized step-by-step equivalence episodes,
# and the pinned-seed scenario sweep (k in {1,2,4}, every engine, both
# executors where the toolchain provides Domains) asserting the merged
# maturity log is verbatim-identical to the unsharded run. CI runs this
# as a separate job on both the 4.14 (seq) and 5.x (domains) legs.
check-shard: build
	RTS_SHARD_SEEDS=$(RTS_SHARD_SEEDS) $(DUNE) exec test/test_shard.exe
	@echo "check-shard: OK"

# Serving suite on its own: frame codec, typed admission refusals,
# backpressure, watchdog wedge recovery, and the combined-fault soak
# (storage faults + net faults at once) for the pinned seeds, asserting
# the maturity stream every subscriber saw is bit-identical to the WAL
# oracle — exactly once, never early, across every crash and restart.
# Then one soak through the real rts-serve binary for an end-to-end
# smoke. CI runs this as a separate job on both compiler legs.
check-serve: build
	RTS_SERVE_SEEDS=$(RTS_SERVE_SEEDS) $(DUNE) exec test/test_serve.exe
	$(DUNE) exec bin/rts_serve.exe -- soak --seed 3 --quiet
	@echo "check-serve: OK"

# Replicated-serving suite on its own: rep codec, clean replication,
# kill/wedge failover with zombie fencing, and the pinned-seed replica
# soak — the promoted node's merged maturity log (archived segments +
# surviving chain) must be bit-identical to the fault-free oracle, with
# WAL disk bounded by segment pruning below the replication ack floor.
# Then two failover soaks through the real rts-serve binary under
# aggressive segment rotation (the rotation stress leg). CI runs this
# as a separate job on both compiler legs.
check-replica: build
	RTS_REPLICA_SEEDS=$(RTS_REPLICA_SEEDS) $(DUNE) exec test/test_replica.exe
	$(DUNE) exec bin/rts_serve.exe -- failover-soak --seed 3 \
	  --segment-records 16 --checkpoint-every 43 --quiet
	$(DUNE) exec bin/rts_serve.exe -- failover-soak --seed 7 --scenario wedge \
	  --segment-records 16 --quiet
	@echo "check-replica: OK"

check: build test bench-smoke
	@echo "check: OK"

clean:
	$(DUNE) clean
	rm -f BENCH_*.json
